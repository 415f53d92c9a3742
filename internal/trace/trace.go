// Package trace is the repo's recorder: bounded rings of fixed, timestamped
// slots. Spans follow one record from Publish through the broker to
// subscriber decode, one per stage, turning the paper's per-stage cost
// breakdown (Tables 1-2) into live flamegraphs: the publisher samples 1-in-N
// roots and downstream processes Join the trace from W3C-shaped IDs carried
// on the wire. Protocol events keep each connection's history (churn, format
// metadata, errors, reconnects, stalls, discovery fetches), always, and
// none fires once per record. Both share one pointer-free slot, copied in
// under a ring's mutex with stream and detail truncated inline, so recording
// allocates nothing; each has its own ring, so a traced burst cannot evict a
// connection's history. Unsampled span calls cost one atomic load.
package trace

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
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

// String renders the trace ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the span ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// Kind is what a slot records: a protocol event or a span's stage.
type Kind uint8

// The protocol event kinds, then the span stages. Zero is never recorded.
const (
	KindConnOpen    Kind = iota + 1 // connection established (detail: remote addr / role)
	KindConnClose                   // connection torn down (detail: cause)
	KindFormatSend                  // format metadata sent (format, meta bytes)
	KindFormatRecv                  // format metadata received (format, meta bytes)
	KindBrokerError                 // broker-side protocol error (detail: error)
	KindReconnect                   // client redial outcome, or its give-up (bytes: attempts)
	KindSlowSubDrop                 // subscriber declared slow: a must-send format frame stalled (format)
	KindDiscovery                   // discovery fetch outcome (stream: schema name, detail: outcome)
	KindPublish                     // span: the publisher's root, one per published record
	KindEncode                      // span: pbio encode at the publisher
	KindDecode                      // span: pbio decode at the subscriber
	KindRoute                       // span: the broker's routing of one publish
	KindQueue                       // span: a frame's wait in a subscriber's queue
	KindCompile                     // span: a dcg plan compilation (cache miss)
	KindConvert                     // span: a dcg conversion
	kindMax
)

var kindNames = [kindMax]string{"unknown", "conn_open", "conn_close", "format_send", "format_recv",
	"broker_error", "reconnect", "slow_sub_drop", "discovery", "pub.publish", "pbio.encode", "pbio.decode",
	"broker.route", "broker.queue", "dcg.compile", "dcg.convert"}

// String returns the wire-stable name: snake_case for protocol events, as
// /debug/flight serves and filters them, and the dotted stage name for spans.
func (k Kind) String() string {
	if k >= kindMax {
		return "unknown"
	}
	return kindNames[k]
}

// kindsWithPrefix returns the protocol event kinds named with prefix: a family
// like "conn", or one exact name, since no name is a prefix of another.
func kindsWithPrefix(prefix string) (out []Kind) {
	if prefix == "" {
		return nil
	}
	for k := KindConnOpen; k < KindPublish; k++ {
		if strings.HasPrefix(kindNames[k], prefix) {
			out = append(out, k)
		}
	}
	return out
}

// slot is one ring entry, protocol event and span alike. It holds no
// pointers, so the collector never scans a ring. Streams beyond 32 bytes and
// details beyond 64 are truncated.
type slot struct {
	unixNS, dur  int64
	conn, format uint64
	bytes        int64
	trace        TraceID
	span, parent SpanID
	kind         Kind
	slen, dlen   uint8
	stream       [32]byte
	detail       [64]byte
}

// ring keeps the newest size slots written to it, allocated by the first.
type ring struct {
	mu    sync.Mutex
	size  int
	slots []slot
	n     uint64 // slots ever written; write n is in slots[(n-1)%size]
}

// put writes s, with stream and detail copied into its inline arrays.
func (g *ring) put(s slot, stream, detail string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.slots == nil {
		g.slots = make([]slot, g.size)
	}
	g.n++
	d := &g.slots[(g.n-1)%uint64(len(g.slots))]
	*d = s
	d.slen = uint8(copy(d.stream[:], stream))
	d.dlen = uint8(copy(d.detail[:], detail))
}

// read calls fn on every slot the ring holds, newest first, and returns how
// many slots were ever written (more than it holds once it wrapped).
func (g *ring) read(fn func(seq uint64, s *slot)) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	size := uint64(len(g.slots))
	for seq := g.n; seq > 0 && g.n-seq < size; seq-- {
		fn(seq, &g.slots[(seq-1)%size])
	}
	return g.n
}

// Recorder holds protocol events and sampled spans; a nil one records nothing.
type Recorder struct {
	every  atomic.Int64 // span sampling: 0 = disabled, n = 1-in-n roots
	ctr    atomic.Uint64
	events ring
	spans  ring
}

// The default ring sizes: 2048 events hold the connection history of a
// mid-frame failure and the reconnect storm after it, 4096 spans the stages
// of several hundred traced records. At 176 bytes a slot, that is 352 KiB
// and 704 KiB; a process that never traces never allocates its span ring.
const (
	defaultEvents = 2048
	defaultSpans  = 4096
)

// New returns a recorder keeping the newest events protocol events and spans
// spans (a size below 1 takes the default), sampling no span.
func New(events, spans int) *Recorder {
	if events < 1 {
		events = defaultEvents
	}
	if spans < 1 {
		spans = defaultSpans
	}
	return &Recorder{events: ring{size: events, slots: make([]slot, events)}, spans: ring{size: spans}}
}

var defaultRecorder = New(0, 0)

// Default returns the process-wide recorder components record into by default.
func Default() *Recorder { return defaultRecorder }

// connIDs hands out process-unique connection ids so broker-side and
// client-side events about different sockets never collide in a ring.
var connIDs atomic.Uint64

// NextConnID allocates a fresh process-unique connection id.
func NextConnID() uint64 { return connIDs.Add(1) }

// Record appends one protocol event. It is safe from any goroutine and
// allocates nothing; stream and detail are truncated to their inline sizes.
func (r *Recorder) Record(k Kind, conn uint64, stream string, format uint64, bytes int64, detail string) {
	if r == nil || k == 0 || k >= KindPublish {
		return
	}
	r.events.put(slot{unixNS: time.Now().UnixNano(), kind: k, conn: conn, format: format, bytes: bytes}, stream, detail)
}

// SetSampling sets the span sampling rate: n <= 0 disables tracing, n
// records every n-th root span (1 = every root).
func (r *Recorder) SetSampling(n int) {
	if r != nil {
		r.every.Store(int64(max(n, 0)))
	}
}

// Start begins a root span of stage k, making the 1-in-N sampling decision.
// When not sampled it returns the zero Ctx.
func (r *Recorder) Start(k Kind) Ctx {
	if r == nil {
		return Ctx{}
	}
	if n := r.every.Load(); n != 1 && (n < 1 || r.ctr.Add(1)%uint64(n) != 0) {
		return Ctx{}
	}
	return Ctx{r: r, trace: randTraceID(), span: randSpanID(), kind: k, start: time.Now()}
}

// Join adopts a trace whose IDs arrived over the wire: the returned Ctx's
// children record into r under the remote span, which Finish does not record.
// When r is disabled or the trace ID is zero, Join returns the zero Ctx.
func (r *Recorder) Join(trace TraceID, parent SpanID) Ctx {
	if r == nil || trace.IsZero() || r.every.Load() <= 0 {
		return Ctx{}
	}
	return Ctx{r: r, trace: trace, span: parent}
}

// RecordSpan records a span of stage k under a sampled trace, with the start
// and duration the caller measured: the broker's queue wait is known only at
// dequeue. No-op when tracing is disabled or id is zero, as an unsampled
// publish's is, so call sites need no sampling check of their own.
func (r *Recorder) RecordSpan(id TraceID, parent SpanID, k Kind, detail string, start time.Time, dur time.Duration) {
	if r == nil || id.IsZero() || r.every.Load() <= 0 {
		return
	}
	r.spans.put(slot{unixNS: start.UnixNano(), dur: int64(dur), kind: k, trace: id, span: randSpanID(), parent: parent}, "", detail)
}

// Span is the decoded view of one recorded span.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for a root span
	Name   string // stage name, e.g. "pbio.encode", "broker.route"
	Detail string // optional context: stream name, schema name
	Start  time.Time
	Dur    time.Duration
}

// Spans returns the spans the recorder holds, oldest first (by start time),
// and how many were recorded over its lifetime.
func (r *Recorder) Spans() ([]Span, uint64) {
	if r == nil {
		return nil, 0
	}
	var out []Span
	n := r.spans.read(func(_ uint64, s *slot) {
		out = append(out, Span{Trace: s.trace, ID: s.span, Parent: s.parent, Name: s.kind.String(),
			Detail: string(s.detail[:s.dlen]), Start: time.Unix(0, s.unixNS), Dur: time.Duration(s.dur)})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, n
}

// Event is the decoded view of one protocol event, as /debug/flight serves it.
type Event struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Conn   uint64    `json:"conn,omitempty"`
	Stream string    `json:"stream,omitempty"`
	Format uint64    `json:"format,omitempty"`
	Bytes  int64     `json:"bytes,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Events returns the protocol events the recorder holds, newest first, and
// how many were recorded over its lifetime.
func (r *Recorder) Events() ([]Event, uint64) {
	if r == nil {
		return nil, 0
	}
	var out []Event
	n := r.events.read(func(seq uint64, s *slot) {
		out = append(out, Event{Seq: seq, Time: time.Unix(0, s.unixNS), Kind: s.kind.String(), Conn: s.conn,
			Stream: string(s.stream[:s.slen]), Format: s.format, Bytes: s.bytes, Detail: string(s.detail[:s.dlen])})
	})
	return out, n
}

// Ctx is a live span handle, passed by value so neither path allocates. The
// zero Ctx is "not sampled": every method is a cheap no-op. A joined Ctx has
// no kind: its children record, it does not.
type Ctx struct {
	r            *Recorder
	trace        TraceID
	span, parent SpanID
	kind         Kind
	start        time.Time
}

func randSpanID() (id SpanID) {
	for id.IsZero() {
		binary.LittleEndian.PutUint64(id[:], rand.Uint64())
	}
	return id
}

func randTraceID() (id TraceID) {
	for id.IsZero() {
		binary.LittleEndian.PutUint64(id[:8], rand.Uint64())
		binary.LittleEndian.PutUint64(id[8:], rand.Uint64())
	}
	return id
}

// Sampled reports whether this span is being recorded.
func (c Ctx) Sampled() bool { return c.r != nil }

// Trace returns the span's trace ID (zero when not sampled).
func (c Ctx) Trace() TraceID { return c.trace }

// Span returns this span's ID, downstream stages' parent (zero if unsampled).
func (c Ctx) Span() SpanID { return c.span }

// Child begins a sub-span of stage k (the zero Ctx when c is unsampled).
func (c Ctx) Child(k Kind) Ctx {
	if c.r == nil {
		return Ctx{}
	}
	return Ctx{r: c.r, trace: c.trace, span: randSpanID(), parent: c.span, kind: k, start: time.Now()}
}

// Finish completes the span and records it with detail (stream name, format
// name), truncated to 64 bytes. No-op when unsampled or joined.
func (c Ctx) Finish(detail string) {
	if c.r == nil || c.kind == 0 {
		return
	}
	c.r.spans.put(slot{unixNS: c.start.UnixNano(), dur: int64(time.Since(c.start)), kind: c.kind,
		trace: c.trace, span: c.span, parent: c.parent}, "", detail)
}
