// Command eventbusd runs the event backbone broker of the paper's
// application scenario (Figure 1): publishers announce structured
// information streams and push NDR records; subscribers receive the records
// together with the format metadata needed to decode them, exchanged once
// per connection.
//
// Usage:
//
//	eventbusd -addr :8701
//	eventbusd -addr :8701 -debug-addr 127.0.0.1:8781 -queue-depth 512
//
// With -debug-addr the broker serves its metrics (/metrics), the two views
// of its recorder (spans sampled by -trace-sample at /debug/trace, protocol
// events at /debug/flight), health endpoints (/healthz, /readyz) and pprof
// profiles (/debug/pprof/) on a second listener; GET /debug lists every
// endpoint, and omtop -addr 127.0.0.1:8781 watches /metrics live:
//
//	curl http://127.0.0.1:8781/metrics
//	curl http://127.0.0.1:8781/debug/flight?n=50
//	curl http://127.0.0.1:8781/debug/trace?format=chrome
//	curl http://127.0.0.1:8781/readyz
//
// Runtime telemetry is always on: the Go runtime's GC-pause/scheduler-
// latency/heap/goroutine metrics are bridged into the registry (runtime.*).
// Lock contention comes from the runtime's own mutex and block profiles,
// which -contention-rate turns on; read them with go tool pprof:
//
//	eventbusd -addr :8701 -debug-addr 127.0.0.1:8781 -contention-rate 5
//	go tool pprof -top http://127.0.0.1:8781/debug/pprof/mutex
//
// Diagnostics go to stderr via log/slog; -log-format selects text or json.
// The broker exits cleanly on SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"log/slog"

	"openmeta/internal/dcg"
	"openmeta/internal/eventbus"
	"openmeta/internal/obsv"
	"openmeta/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eventbusd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eventbusd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8701", "listen address")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/flight, /debug/trace, /healthz, /readyz and /debug/pprof on this address")
	queueDepth := fs.Int("queue-depth", 0, "per-subscriber outbound queue depth (0 = default)")
	writeDeadline := fs.Duration("write-deadline", 0, "per-subscriber flush deadline before a stalled peer is dropped (0 = default 2s)")
	traceSample := fs.Int("trace-sample", 0, "record spans for 1 in N traces (1 = all, 0 = tracing off)")
	exemplarsOn := fs.Bool("exemplars", true, "attach trace exemplars to latency histogram buckets (OpenMetrics /metrics)")
	planCacheMax := fs.Int("plan-cache-max", 0, "bound the scoped-conversion plan cache to this many entries (0 = unbounded)")
	contentionRate := fs.Int("contention-rate", 0, "runtime mutex/block profiling rate for /debug/pprof/mutex and /debug/pprof/block (N samples ~1-in-N contention events and blocks >= N ns; 0 = off)")
	logFormat := fs.String("log-format", "text", "diagnostic log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obsv.NewSlog(*logFormat, os.Stderr)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	trace.Default().SetSampling(*traceSample)
	obsv.SetExemplars(*exemplarsOn)
	runtime.SetMutexProfileFraction(*contentionRate)
	runtime.SetBlockProfileRate(*contentionRate)
	// Runtime telemetry (GC pauses, scheduler latency, heap, goroutines)
	// rides the same registry as the broker's own metrics, so /metrics carries
	// it with no extra wiring.
	stopRuntime := obsv.StartRuntimeMetrics(obsv.Default(), time.Second)
	defer stopRuntime()
	var opts []eventbus.BrokerOption
	if *queueDepth > 0 {
		opts = append(opts, eventbus.WithQueueDepth(*queueDepth))
	}
	if *writeDeadline > 0 {
		opts = append(opts, eventbus.WithWriteDeadline(*writeDeadline))
	}
	if *planCacheMax > 0 {
		opts = append(opts, eventbus.WithPlanCache(dcg.NewCache(dcg.WithMaxEntries(*planCacheMax))))
	}
	broker, err := eventbus.Listen(*addr, opts...)
	if err != nil {
		return err
	}
	logger.Info("event backbone listening", "component", "eventbusd", "addr", broker.Addr().String())

	// Readiness: the broker must be accepting, and a bounded plan cache must
	// be holding its bound (a breach means eviction is broken, not just load).
	obsv.RegisterProbe("broker", broker.Healthy)
	if max := *planCacheMax; max > 0 {
		obsv.RegisterProbe("plan-cache", func() error {
			if n := broker.PlanCacheLen(); n > max {
				return fmt.Errorf("plan cache holds %d entries, bound %d", n, max)
			}
			return nil
		})
	}

	if *debugAddr != "" {
		dbg, err := obsv.ListenAndServeDebug(*debugAddr, obsv.Default())
		if err != nil {
			return err
		}
		logger.Info("debug endpoints up", "component", "eventbusd",
			"addr", dbg.String(), "paths", "/debug /metrics /debug/flight /debug/trace /healthz /readyz /debug/pprof")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down", "component", "eventbusd")
	return broker.Close()
}
