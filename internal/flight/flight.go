// Package flight is a black-box flight recorder for the openmeta wire
// protocol: a fixed-capacity ring of typed protocol events that components
// record into and operators dump after the fact via /debug/flight. It
// answers the question logs cannot — "what were the last N things that
// happened on this connection before it died?" — without requiring that
// logging was turned up beforehand.
//
// The recorder keeps connection history, not traffic: no event fires once
// per record. Connection churn, format metadata, errors, reconnects,
// stalled must-send frames, discovery fetches and retry give-ups are
// recorded; record and byte counts live in the eventbus.wire.* counters.
// At that rate the ring is a plain mutex over a slice of slots. Record
// performs no allocations (guarded by testing.AllocsPerRun in the package
// tests): stream and detail are copied into fixed inline arrays and
// truncated beyond them, so a peer-chosen long string cannot pin memory.
package flight

import (
	"strings"
	"sync"
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
	KindFormatSend                  // format metadata sent (format, meta bytes)
	KindFormatRecv                  // format metadata received (format, meta bytes)
	KindBrokerError                 // broker-side protocol error (detail: error)
	KindReconnect                   // client reconnect attempt (detail: outcome or redial error)
	KindSlowSubDrop                 // subscriber declared slow: a must-send format frame stalled (format)
	KindDiscovery                   // discovery fetch outcome (stream: schema name, detail: outcome)
	KindRetryGiveUp                 // retry.Do exhausted its attempts (detail: last error)
	kindMax
)

var kindNames = [kindMax]string{
	KindConnOpen:    "conn_open",
	KindConnClose:   "conn_close",
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

// slot is one ring entry. Stream names beyond 32 bytes and details beyond 64
// bytes are truncated; both bounds comfortably hold the repo's stream names
// and one-line error strings.
type slot struct {
	unixNS int64
	conn   uint64
	format uint64
	bytes  int64
	kind   Kind
	slen   uint8
	dlen   uint8
	stream [32]byte
	detail [64]byte
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
	mu    sync.Mutex
	slots []slot
	n     uint64 // events ever recorded; event n is in slot (n-1) % len(slots)
}

// DefaultCapacity is the ring size of the process-wide Default recorder:
// large enough to hold the full connection history of a mid-frame failure
// plus the reconnect storm that follows, small enough (~300 KiB) to leave
// running everywhere.
const DefaultCapacity = 2048

// New returns a recorder holding the last capacity events; capacity < 1
// uses DefaultCapacity.
func New(capacity int) *Recorder {
	if capacity < 1 {
		capacity = DefaultCapacity
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

// Record appends one event to the ring. It is safe from any goroutine,
// performs no allocations, and is a no-op on a nil recorder. stream and
// detail are truncated to their inline capacities.
func (r *Recorder) Record(k Kind, conn uint64, stream string, format uint64, bytes int64, detail string) {
	if r == nil || k == 0 || k >= kindMax {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	s := &r.slots[(r.n-1)%uint64(len(r.slots))]
	s.unixNS, s.kind = time.Now().UnixNano(), k
	s.conn, s.format, s.bytes = conn, format, bytes
	s.slen = uint8(copy(s.stream[:], stream))
	s.dlen = uint8(copy(s.detail[:], detail))
}

// Len reports the number of events currently readable (at most the ring
// capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return int(min(r.total(), uint64(len(r.slots))))
}

// total reports how many events have ever been recorded (including those the
// ring has already overwritten).
func (r *Recorder) total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot returns the events in the ring, newest first.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.slots))
	out := make([]Event, 0, min(r.n, size))
	for seq := r.n; seq > 0 && r.n-seq < size; seq-- {
		s := &r.slots[(seq-1)%size]
		out = append(out, Event{
			Seq:    seq,
			Time:   time.Unix(0, s.unixNS),
			Kind:   s.kind.String(),
			Conn:   s.conn,
			Stream: string(s.stream[:s.slen]),
			Format: s.format,
			Bytes:  s.bytes,
			Detail: string(s.detail[:s.dlen]),
		})
	}
	return out
}
