package openmeta

import (
	"net/http"

	"openmeta/internal/eventbus"
	"openmeta/internal/obsv"
	"openmeta/internal/trace"
)

// Tracer records spans of work into a fixed-size ring buffer with 1-in-N
// sampling; unsampled work costs nothing (no allocation, no lock). Every
// component records into the process-wide default tracer unless handed its
// own via WithTracing or WithBusTracing.
type Tracer = trace.Tracer

// Span is one completed, sampled unit of work: its 128-bit trace identity,
// 64-bit span ID, parent link, name, detail, start time and duration.
type Span = trace.Span

// TraceID identifies one end-to-end trace across processes.
type TraceID = trace.TraceID

// NewTracer returns a tracer keeping the most recent capacity sampled spans
// (capacity <= 0 uses the default of 4096). Sampling starts disabled; call
// SetSampling to turn it on.
func NewTracer(capacity int) *Tracer { return trace.NewTracer(capacity) }

// DefaultTracer returns the process-wide tracer that every component
// records into by default. It starts disabled.
func DefaultTracer() *Tracer { return trace.Default() }

// EnableTracing turns on the default tracer, sampling one in every n new
// traces (n=1 records everything, n=0 disables tracing again). The sampling
// decision is made once at the root span — a publisher's sampled record
// stays sampled through the broker and into its subscribers, because the
// trace context travels with the record on the wire.
func EnableTracing(n int) { trace.Default().SetSampling(n) }

// TraceSnapshot returns the default tracer's retained spans, oldest first.
func TraceSnapshot() []Span { return trace.Default().Snapshot() }

// TraceHandler serves the default tracer's retained spans over HTTP: JSON
// by default, Chrome trace_event format with ?format=chrome (load the
// response in chrome://tracing or Perfetto). DebugHandler mounts it at
// /debug/trace.
func TraceHandler() http.Handler { return trace.Handler(trace.Default()) }

// MetricsHandler serves the default observer in the Prometheus text
// exposition format. DebugHandler mounts it at /metrics.
func MetricsHandler() http.Handler { return obsv.Default().MetricsHandler() }

// WithTracing directs a broker's spans (broker.route, dcg.compile,
// dcg.convert) into t instead of the default tracer.
func WithTracing(t *Tracer) BrokerOption { return eventbus.WithTracer(t) }

// WithBusTracing directs a publisher's or subscriber's spans (pub.publish,
// pbio.encode, pbio.decode) into t instead of the default tracer. A record
// the publisher's tracer samples carries its trace context to the broker
// and on to every subscriber; nothing is negotiated at dial time, and a
// subscriber whose tracer is disabled ignores the context.
func WithBusTracing(t *Tracer) BusClientOption { return eventbus.WithClientTracer(t) }
