// Package flight is a black-box flight recorder for the openmeta wire
// protocol: a fixed-capacity, lock-free ring of typed protocol events that
// components record into at essentially zero cost and operators dump after
// the fact via /debug/flight. It answers the question logs cannot — "what
// were the last N things that happened on this connection before it died?" —
// without requiring that logging was turned up beforehand.
//
// The recorder is always on. Recording takes no locks and performs no
// allocations (guarded by testing.AllocsPerRun in the package tests), so the
// broker and clients call Record on their per-frame hot paths. Events carry
// a kind, an optional connection id, stream name, format id, byte count and
// a short free-text detail; string fields are truncated to fixed inline
// capacities rather than allocated.
//
// Concurrency model: each slot in the ring is guarded by its own sequence
// lock made of atomics — a writer bumps the guard to an odd value, stores
// the fields (every field is itself an atomic; string bytes are packed into
// uint64 words), then bumps the guard back to even. Readers retry a slot
// whose guard is odd or changes across the read. If two writers lap each
// other onto the same slot the loser's data may be replaced mid-write; the
// guard discipline keeps readers from observing a torn record in any
// realistic schedule (a reader would have to stall for a full ring cycle),
// and a diagnostics ring prefers losing one event to taking a lock.
package flight

import (
	"strings"
	"sync/atomic"
	"time"
)

// Kind classifies a protocol event.
type Kind uint8

// Event kinds recorded by the eventbus broker and clients, the discovery
// client and the retry helper. The zero Kind marks an empty slot and is
// never recorded.
const (
	KindConnOpen    Kind = iota + 1 // connection established (detail: remote addr / role)
	KindConnClose                   // connection torn down (detail: cause)
	KindHello                       // frameHello negotiation outcome (bytes: peer caps, detail: outcome)
	KindFrameSend                   // event frame sent (stream, format, payload bytes)
	KindFrameRecv                   // event frame received (stream, format, payload bytes)
	KindFormatSend                  // format metadata sent (format, meta bytes)
	KindFormatRecv                  // format metadata received (format, meta bytes)
	KindBrokerError                 // broker-side protocol error (detail: error)
	KindReconnect                   // client reconnect attempt (detail: outcome or redial error)
	KindSlowSubDrop                 // event dropped / subscriber declared slow (stream)
	KindDiscovery                   // discovery fetch outcome (stream: schema name, detail: outcome)
	KindRetryGiveUp                 // retry.Do exhausted its attempts or budget (detail: last error)
	kindMax
)

var kindNames = [kindMax]string{
	KindConnOpen:    "conn_open",
	KindConnClose:   "conn_close",
	KindHello:       "hello",
	KindFrameSend:   "frame_send",
	KindFrameRecv:   "frame_recv",
	KindFormatSend:  "format_send",
	KindFormatRecv:  "format_recv",
	KindBrokerError: "broker_error",
	KindReconnect:   "reconnect",
	KindSlowSubDrop: "slow_sub_drop",
	KindDiscovery:   "discovery",
	KindRetryGiveUp: "retry_giveup",
}

// String returns the wire-stable snake_case name used in /debug/flight JSON
// and its ?kind= filter.
func (k Kind) String() string {
	if k == 0 || k >= kindMax {
		return "unknown"
	}
	return kindNames[k]
}

// KindFromString resolves the snake_case name back to a Kind (0 if unknown).
func KindFromString(s string) Kind {
	for k, n := range kindNames {
		if n == s {
			return Kind(k)
		}
	}
	return 0
}

// KindsWithPrefix returns every kind whose name starts with prefix — how the
// /debug/flight?kind= filter matches a family like "conn" (conn_open +
// conn_close) or "format" (format_send + format_recv) as well as exact names.
func KindsWithPrefix(prefix string) []Kind {
	if prefix == "" {
		return nil
	}
	var out []Kind
	for k := int(KindConnOpen); k < int(kindMax); k++ {
		if strings.HasPrefix(kindNames[k], prefix) {
			out = append(out, Kind(k))
		}
	}
	return out
}

// Inline string capacities. Stream names beyond streamWords*8 bytes and
// details beyond detailWords*8 bytes are truncated; both bounds comfortably
// hold the repo's stream names and one-line error strings.
const (
	streamWords = 4 // 32 bytes
	detailWords = 8 // 64 bytes
)

// slot is one ring entry. Every field is an atomic so concurrent writers and
// readers are race-detector clean without locks; guard is the per-slot
// seqlock (odd while a writer is inside).
type slot struct {
	guard  atomic.Uint64
	seq    atomic.Uint64 // global event number, 1-based
	unixNS atomic.Int64
	kind   atomic.Uint32
	conn   atomic.Uint64
	format atomic.Uint64
	bytes  atomic.Int64
	slen   atomic.Uint32
	dlen   atomic.Uint32
	stream [streamWords]atomic.Uint64
	detail [detailWords]atomic.Uint64
}

// Event is the decoded, stable view of one recorded slot, as served by
// Snapshot and /debug/flight.
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

// Recorder is the fixed-capacity event ring. A nil *Recorder is a no-op, so
// instrumented components can hold one unconditionally.
type Recorder struct {
	slots  []slot
	cursor atomic.Uint64
}

// DefaultCapacity is the ring size of the process-wide Default recorder:
// large enough to hold the full connection history of a mid-frame failure
// plus the reconnect storm that follows, small enough (~300 KiB) to leave
// running everywhere.
const DefaultCapacity = 2048

// New returns a recorder holding the last capacity events (minimum 1).
func New(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{slots: make([]slot, capacity)}
}

var defaultRecorder = New(DefaultCapacity)

// Default returns the process-wide recorder that instrumented components use
// unless handed a recorder of their own via their WithFlightRecorder option.
func Default() *Recorder { return defaultRecorder }

// connIDs hands out process-unique connection ids so broker-side and
// client-side events about different sockets never collide in the ring.
var connIDs atomic.Uint64

// NextConnID allocates a fresh process-unique connection id.
func NextConnID() uint64 { return connIDs.Add(1) }

// Record appends one event to the ring. It is safe from any goroutine, takes
// no locks, performs no allocations, and is a no-op on a nil recorder.
// stream and detail are truncated to their inline capacities.
func (r *Recorder) Record(k Kind, conn uint64, stream string, format uint64, bytes int64, detail string) {
	if r == nil || len(r.slots) == 0 || k == 0 || k >= kindMax {
		return
	}
	n := r.cursor.Add(1)
	s := &r.slots[(n-1)%uint64(len(r.slots))]
	s.guard.Add(1) // odd: writer inside
	s.seq.Store(n)
	s.unixNS.Store(time.Now().UnixNano())
	s.kind.Store(uint32(k))
	s.conn.Store(conn)
	s.format.Store(format)
	s.bytes.Store(bytes)
	s.slen.Store(packString(s.stream[:], stream))
	s.dlen.Store(packString(s.detail[:], detail))
	s.guard.Add(1) // even: stable
}

// packString stores up to len(words)*8 bytes of v into the uint64 words
// (little-endian within each word) and returns the stored length. It never
// allocates: bytes are folded into words with shifts, indexing the string
// directly.
func packString(words []atomic.Uint64, v string) uint32 {
	if len(v) > len(words)*8 {
		v = v[:len(words)*8]
	}
	for w := 0; w*8 < len(v); w++ {
		var acc uint64
		end := w*8 + 8
		if end > len(v) {
			end = len(v)
		}
		for i := w * 8; i < end; i++ {
			acc |= uint64(v[i]) << (8 * uint(i-w*8))
		}
		words[w].Store(acc)
	}
	return uint32(len(v))
}

// unpackString is the snapshot-time inverse of packString.
func unpackString(words []uint64, n uint32) string {
	if n == 0 {
		return ""
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(words[i/8] >> (8 * uint(i%8)))
	}
	return string(buf)
}

// Len reports the number of events currently readable (at most the ring
// capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.cursor.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Snapshot returns the stable events in the ring, newest first. Slots with a
// writer mid-store are retried briefly and skipped if still unstable.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev, ok := r.slots[i].read(); ok {
			out = append(out, ev)
		}
	}
	// Newest first: the per-slot global sequence numbers give a total order
	// regardless of ring position.
	sortEventsDesc(out)
	return out
}

// read extracts a consistent Event from the slot, or ok=false if the slot is
// empty or a writer kept it unstable across a few retries.
func (s *slot) read() (Event, bool) {
	for attempt := 0; attempt < 4; attempt++ {
		g1 := s.guard.Load()
		if g1&1 == 1 {
			continue // writer inside
		}
		seq := s.seq.Load()
		if seq == 0 {
			return Event{}, false // never written
		}
		k := Kind(s.kind.Load())
		ev := Event{
			Seq:    seq,
			Time:   time.Unix(0, s.unixNS.Load()),
			Kind:   k.String(),
			Conn:   s.conn.Load(),
			Format: s.format.Load(),
			Bytes:  s.bytes.Load(),
		}
		var sw [streamWords]uint64
		for i := range sw {
			sw[i] = s.stream[i].Load()
		}
		var dw [detailWords]uint64
		for i := range dw {
			dw[i] = s.detail[i].Load()
		}
		slen, dlen := s.slen.Load(), s.dlen.Load()
		if s.guard.Load() != g1 {
			continue // torn read; retry
		}
		ev.Stream = unpackString(sw[:], slen)
		ev.Detail = unpackString(dw[:], dlen)
		return ev, true
	}
	return Event{}, false
}

// sortEventsDesc sorts by Seq descending (insertion-friendly shell sort — the
// slice is nearly sorted already because the ring is written in order).
func sortEventsDesc(evs []Event) {
	for gap := len(evs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(evs); i++ {
			e := evs[i]
			j := i
			for ; j >= gap && evs[j-gap].Seq < e.Seq; j -= gap {
				evs[j] = evs[j-gap]
			}
			evs[j] = e
		}
	}
}
