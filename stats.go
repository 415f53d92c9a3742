package openmeta

import (
	"net/http"

	"openmeta/internal/eventbus"
	"openmeta/internal/obsv"
)

// Observer is a metrics registry: named counters, gauges and histograms
// with an allocation-free hot path. Every component reports into the
// process-wide default observer unless handed its own via WithObserver,
// WithBrokerObserver or WithPlanCacheObserver.
type Observer = obsv.Registry

// BrokerStats is a point-in-time view of a Broker's delivery health (see
// (*Broker).Stats).
type BrokerStats = eventbus.BrokerStats

// NewObserver returns an empty metrics registry, for callers that want
// per-component isolation instead of the process-wide default.
func NewObserver() *Observer { return obsv.New() }

// DefaultObserver returns the process-wide registry every component reports
// into by default.
func DefaultObserver() *Observer { return obsv.Default() }

// Stats returns a point-in-time snapshot of the default observer: counter
// and gauge values under their names, histograms flattened to .count, .sum,
// .max, .p50, .p95 and .p99 keys. Metric names are stable and documented in the
// README's Observability section; the important ones:
//
//	pbio.formats.registered    formats registered locally
//	pbio.formats.adopted       formats adopted from remote peers
//	pbio.encode.calls/.bytes   NDR records encoded and wire bytes produced
//	pbio.decode.calls/.bytes   NDR records decoded and wire bytes consumed
//	pbio.meta.marshals/.unmarshals  format-metadata exchanges
//	dcg.plan_cache.hits/.misses/.evictions  conversion-plan cache behaviour
//	dcg.plan.compile_ns.*      plan-compilation latency histogram
//	dcg.conversions            record conversions executed
//	eventbus.published/.delivered/.dropped  backbone delivery health
//	eventbus.wire.records/.delivered.records/.dropped.records{stream,format}
//	                           the same, per stream and format
//	eventbus.queue_depth       current outbound backlog across subscribers
//	eventbus.pub.reconnects/.redial_errors  publisher reconnect outcomes
//	eventbus.sub.reconnects/.redial_errors  subscriber reconnect outcomes
//	discovery.fetches/.cache_hits/.fetch_ns.*  metadata discovery costs
//	discovery.stale_served     expired schemas served during repo outages
//	retry.attempts/.retries/.giveups  robustness-layer retry volume
//	retry.sleep_ns.*           backoff sleep histogram
//	obsv.labels.dropped        label combinations clamped into the overflow child
func Stats() map[string]int64 { return obsv.Default().Snapshot() }

// StatsDelta returns after-minus-before for two Stats snapshots: what the
// counters moved over the work between them.
func StatsDelta(before, after map[string]int64) map[string]int64 {
	return obsv.Delta(before, after)
}

// DebugHandler returns the full debug endpoint the daemons mount behind
// their -debug-addr flag: /metrics (Prometheus text exposition, or
// OpenMetrics with trace exemplars), /debug/trace (recent spans, see
// TraceHandler), /debug/flight, /healthz, /readyz and /debug/pprof/...
// (net/http/pprof; lock contention is its mutex and block profiles). GET
// /debug lists everything.
func DebugHandler() http.Handler {
	return obsv.DebugMux(obsv.Default(),
		obsv.DebugEndpoint{Path: "/debug/trace", Handler: TraceHandler(), Desc: "recent trace spans, oldest first"})
}
