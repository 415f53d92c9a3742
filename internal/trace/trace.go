// Package trace is the repo's distributed-tracing layer: a dependency-free
// span recorder that follows one record from Publish through the broker to
// subscriber decode, turning the paper's hand-built per-stage cost
// decomposition (Tables 1-2) into live flamegraphs.
//
// A Tracer samples 1-in-N root spans into a fixed-size lock-free ring buffer
// of completed spans. Span identity follows the W3C shape: a 128-bit TraceID
// names the whole end-to-end record journey and a 64-bit SpanID names each
// stage; parent links reconstruct the tree. The sampling decision is made
// once at the root (the publisher); downstream processes Join the trace from
// wire-carried IDs and record their stages against the same TraceID.
//
// Hot-path contract (same as internal/obsv): when tracing is disabled or a
// root is not sampled, Start/Child/Finish perform no allocation and take no
// locks — guarded by testing.AllocsPerRun in the package tests. Sampled
// spans allocate once at Finish (the ring slot store).
package trace

import (
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end record journey across processes.
type TraceID [16]byte

// SpanID identifies one stage (span) within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is unset.
func (id SpanID) IsZero() bool { return id == SpanID{} }

const hexDigits = "0123456789abcdef"

func appendHex(dst []byte, b []byte) []byte {
	for _, c := range b {
		dst = append(dst, hexDigits[c>>4], hexDigits[c&0xf])
	}
	return dst
}

// String renders the trace ID as 32 lowercase hex digits.
func (id TraceID) String() string { return string(appendHex(nil, id[:])) }

// String renders the span ID as 16 lowercase hex digits.
func (id SpanID) String() string { return string(appendHex(nil, id[:])) }

// Span is one completed, recorded stage of a trace.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for a root span
	Name   string // stage name, e.g. "pbio.encode", "broker.route"
	Detail string // optional context: stream name, schema name
	Start  time.Time
	Dur    time.Duration
}

// Tracer samples and records spans. A nil *Tracer never samples and all its
// operations are no-ops, so optional tracing can be left nil at call sites.
type Tracer struct {
	// every is the sampling rate: 0 = disabled, n = record 1-in-n roots.
	every atomic.Int64
	ctr   atomic.Uint64
	// ring is the fixed-size buffer of completed spans; cursor allocates
	// slots monotonically and wraps, so the newest DefaultCapacity spans
	// survive. Slots hold immutable *Span values, making concurrent
	// record/snapshot safe without locks.
	ring   []atomic.Pointer[Span]
	cursor atomic.Uint64
}

// DefaultCapacity is the ring size of tracers built by NewTracer(0) and of
// the process default tracer: the newest 4096 completed spans are kept.
const DefaultCapacity = 4096

// NewTracer returns a disabled tracer keeping the newest capacity completed
// spans (capacity <= 0 uses DefaultCapacity). Enable it with SetSampling.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{ring: make([]atomic.Pointer[Span], capacity)}
}

var defaultTracer = NewTracer(0)

// Default returns the process-wide tracer every component records into
// unless handed one of its own. It starts disabled.
func Default() *Tracer { return defaultTracer }

// SetSampling sets the sampling rate: n <= 0 disables tracing, n records
// every n-th root span (1 = every root).
func (t *Tracer) SetSampling(n int) {
	if t == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	t.every.Store(int64(n))
}

// Enabled reports whether the tracer currently samples at all.
func (t *Tracer) Enabled() bool { return t != nil && t.every.Load() > 0 }

// sample makes the root-level 1-in-N decision.
func (t *Tracer) sample() bool {
	if t == nil {
		return false
	}
	n := t.every.Load()
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	return t.ctr.Add(1)%uint64(n) == 0
}

// record stores one completed span in the ring.
func (t *Tracer) record(sp *Span) {
	if len(t.ring) == 0 { // zero-value Tracer; use NewTracer
		return
	}
	idx := t.cursor.Add(1) - 1
	t.ring[idx%uint64(len(t.ring))].Store(sp)
}

// RecordSpan records a retroactive span under an already-sampled trace: the
// caller supplies the start and duration it measured itself, for stages whose
// timing is only known after the fact (the broker's queue wait is measured at
// dequeue, long after the enqueue that started it). No-op when the tracer is
// disabled or id is zero — an unsampled publish carries a zero TraceID, so
// call sites need no sampling check of their own.
func (t *Tracer) RecordSpan(id TraceID, parent SpanID, name, detail string, start time.Time, dur time.Duration) {
	if t == nil || t.every.Load() <= 0 || id.IsZero() {
		return
	}
	t.record(&Span{
		Trace:  id,
		ID:     randSpanID(),
		Parent: parent,
		Name:   name,
		Detail: detail,
		Start:  start,
		Dur:    dur,
	})
}

// Recorded reports how many spans have been recorded over the tracer's
// lifetime (recorded minus capacity spans have been overwritten).
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	return int64(t.cursor.Load())
}

// Snapshot returns the completed spans currently in the ring, oldest first
// (by start time). The spans are copies; mutating them is safe.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, len(t.ring))
	for i := range t.ring {
		if sp := t.ring[i].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Reset drops every recorded span (tests, or between benchmark runs).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.ring {
		t.ring[i].Store(nil)
	}
}

// Ctx is a live span handle, passed by value so the unsampled path never
// allocates. The zero Ctx is "not sampled": every method is a cheap no-op,
// letting call sites thread tracing unconditionally.
type Ctx struct {
	t      *Tracer
	trace  TraceID
	span   SpanID
	parent SpanID
	name   string
	start  time.Time
	// foreign marks a joined remote span: its children record here, but
	// Finish must not re-record the remote stage itself.
	foreign bool
}

func randSpanID() SpanID {
	var id SpanID
	v := rand.Uint64()
	for v == 0 {
		v = rand.Uint64()
	}
	for i := range id {
		id[i] = byte(v >> (8 * uint(i)))
	}
	return id
}

func randTraceID() TraceID {
	var id TraceID
	hi, lo := rand.Uint64(), rand.Uint64()
	for hi == 0 && lo == 0 {
		hi, lo = rand.Uint64(), rand.Uint64()
	}
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (8 * uint(i)))
		id[8+i] = byte(lo >> (8 * uint(i)))
	}
	return id
}

// Start begins a root span named name, making the 1-in-N sampling decision.
// When not sampled it returns the zero Ctx and performs no allocation.
func (t *Tracer) Start(name string) Ctx {
	if !t.sample() {
		return Ctx{}
	}
	return Ctx{
		t:     t,
		trace: randTraceID(),
		span:  randSpanID(),
		name:  name,
		start: time.Now(),
	}
}

// Join adopts a trace whose IDs arrived over the wire: children created from
// the returned Ctx record into t with parent set to the remote span. Finish
// on the joined Ctx itself is a no-op (the remote process owns that span).
// When t is disabled or the trace ID is zero, Join returns the zero Ctx.
func (t *Tracer) Join(trace TraceID, parent SpanID) Ctx {
	if t == nil || t.every.Load() <= 0 || trace.IsZero() {
		return Ctx{}
	}
	return Ctx{t: t, trace: trace, span: parent, foreign: true}
}

// Sampled reports whether this span is being recorded.
func (c Ctx) Sampled() bool { return c.t != nil }

// Trace returns the span's trace ID (zero when not sampled).
func (c Ctx) Trace() TraceID { return c.trace }

// Span returns this span's ID — the value downstream stages use as their
// parent link (zero when not sampled).
func (c Ctx) Span() SpanID { return c.span }

// Child begins a sub-span of c. On an unsampled Ctx it returns the zero Ctx
// with no allocation.
func (c Ctx) Child(name string) Ctx {
	if c.t == nil {
		return Ctx{}
	}
	return Ctx{
		t:      c.t,
		trace:  c.trace,
		span:   randSpanID(),
		parent: c.span,
		name:   name,
		start:  time.Now(),
	}
}

// Finish completes the span and records it. No-op when unsampled or joined.
func (c Ctx) Finish() { c.FinishDetail("") }

// FinishDetail completes the span, attaching a detail string (stream name,
// schema name) to the recorded span.
func (c Ctx) FinishDetail(detail string) {
	if c.t == nil || c.foreign {
		return
	}
	c.t.record(&Span{
		Trace:  c.trace,
		ID:     c.span,
		Parent: c.parent,
		Name:   c.name,
		Detail: detail,
		Start:  c.start,
		Dur:    time.Since(c.start),
	})
}
