// Package faultnet is a deterministic fault-injection harness for the
// repo's network layers. It wraps net.Conn so tests can subject the event
// backbone to the failure modes real links exhibit — added latency, partial writes, short reads,
// connection resets, and connections that die after N more bytes — from a
// scripted schedule, so a failure seen in CI replays exactly on a laptop.
//
// A Schedule is a queue of Faults consumed one per I/O operation. Build one
// with NewSchedule.
package faultnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected is the root of every error this package injects; wrapped
// errors carry the fault kind for diagnostics. Callers should treat it
// like any transient network error.
var ErrInjected = errors.New("faultnet: injected fault")

// Kind enumerates the injectable failure modes.
type Kind uint8

const (
	// None passes the operation through untouched.
	None Kind = iota
	// Latency sleeps Fault.Delay before performing the operation.
	Latency
	// ShortRead truncates one Read to at most Fault.N bytes (data is not
	// lost — the rest stays buffered in the underlying connection).
	ShortRead
	// PartialWrite writes only Fault.N bytes of the caller's buffer to the
	// underlying connection, then reports an injected error — the classic
	// "connection died mid-frame" case.
	PartialWrite
	// Reset closes the underlying connection and fails the operation, like
	// a peer sending RST.
	Reset
	// DropAfter lets Fault.N more bytes flow (reads + writes combined),
	// then behaves like Reset on the operation that crosses the limit.
	DropAfter
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Latency:
		return "latency"
	case ShortRead:
		return "short-read"
	case PartialWrite:
		return "partial-write"
	case Reset:
		return "reset"
	case DropAfter:
		return "drop-after"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one scheduled failure.
type Fault struct {
	Kind  Kind
	Delay time.Duration // Latency only
	N     int           // ShortRead/PartialWrite/DropAfter byte count
}

// Schedule is a concurrency-safe queue of faults. Wrapped connections
// consume one entry per operation; when the queue is exhausted
// operations pass through cleanly (or the queue loops, with Loop).
type Schedule struct {
	mu     sync.Mutex
	faults []Fault
	pos    int
	loop   bool
}

// NewSchedule builds a schedule that plays the given faults in order, once.
func NewSchedule(faults ...Fault) *Schedule {
	return &Schedule{faults: faults}
}

// Loop makes the schedule repeat from the start once exhausted and returns
// it (chainable).
func (s *Schedule) Loop() *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loop = true
	return s
}

// Remaining reports how many scheduled faults have not yet fired (the
// current cycle only, for looping schedules).
func (s *Schedule) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.faults) - s.pos
}

// next pops the next fault, or None when exhausted.
func (s *Schedule) next() Fault {
	if s == nil {
		return Fault{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos >= len(s.faults) {
		if !s.loop || len(s.faults) == 0 {
			return Fault{}
		}
		s.pos = 0
	}
	f := s.faults[s.pos]
	s.pos++
	return f
}

// profile weights generate's pseudo-random fault mix. Probabilities are
// per-operation and the remainder passes through cleanly; they are
// normalized if they sum past 1.
type profile struct {
	PLatency, PShortRead, PPartialWrite, PReset, PDropAfter float64
	// MaxDelay bounds injected latency (default 5ms).
	MaxDelay time.Duration
	// MaxBytes bounds ShortRead/PartialWrite/DropAfter byte counts
	// (default 64).
	MaxBytes int
}

// defaultProfile is a mildly hostile network: mostly clean operations with
// occasional latency, truncation and the odd reset.
func defaultProfile() profile {
	return profile{
		PLatency:      0.10,
		PShortRead:    0.10,
		PPartialWrite: 0.05,
		PReset:        0.02,
		PDropAfter:    0.02,
		MaxDelay:      5 * time.Millisecond,
		MaxBytes:      64,
	}
}

// generate produces n faults pseudo-randomly from seed under the profile.
// The sequence is a pure function of (seed, n, profile): the determinism
// the ISSUE's property test asserts.
func generate(seed int64, n int, p profile) []Fault {
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Millisecond
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = 64
	}
	total := p.PLatency + p.PShortRead + p.PPartialWrite + p.PReset + p.PDropAfter
	scale := 1.0
	if total > 1 {
		scale = 1 / total
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Fault, n)
	for i := range out {
		r := rng.Float64()
		var f Fault
		switch {
		case r < p.PLatency*scale:
			f = Fault{Kind: Latency, Delay: time.Duration(rng.Int63n(int64(p.MaxDelay)) + 1)}
		case r < (p.PLatency+p.PShortRead)*scale:
			f = Fault{Kind: ShortRead, N: rng.Intn(p.MaxBytes) + 1}
		case r < (p.PLatency+p.PShortRead+p.PPartialWrite)*scale:
			f = Fault{Kind: PartialWrite, N: rng.Intn(p.MaxBytes) + 1}
		case r < (p.PLatency+p.PShortRead+p.PPartialWrite+p.PReset)*scale:
			f = Fault{Kind: Reset}
		case r < (p.PLatency+p.PShortRead+p.PPartialWrite+p.PReset+p.PDropAfter)*scale:
			f = Fault{Kind: DropAfter, N: rng.Intn(p.MaxBytes) + 1}
		}
		out[i] = f
	}
	return out
}

// Conn wraps a net.Conn, applying one scheduled fault per Read/Write. Once
// a Reset or DropAfter fires, the connection is broken: the underlying conn
// is closed and every further operation fails with ErrInjected.
type Conn struct {
	net.Conn
	sched *Schedule

	mu        sync.Mutex
	broken    bool
	armed     bool // DropAfter fired; allowance counts down
	allowance int
}

// Wrap attaches the schedule to c. A nil schedule passes everything
// through.
func Wrap(c net.Conn, s *Schedule) *Conn {
	return &Conn{Conn: c, sched: s}
}

// breakConn marks the connection dead and closes the underlying socket.
// Callers hold c.mu.
func (c *Conn) breakLocked(kind Kind) error {
	c.broken = true
	_ = c.Conn.Close()
	return fmt.Errorf("%w: %s", ErrInjected, kind)
}

// admit applies connection-wide state (broken, drop-after allowance) before
// an operation moving n bytes; it returns the bytes the operation may move
// (possibly fewer) and whether the op must fail afterwards.
func (c *Conn) admit(n int) (allowed int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return 0, fmt.Errorf("%w: connection already broken", ErrInjected)
	}
	if !c.armed {
		return n, nil
	}
	if c.allowance <= 0 {
		return 0, c.breakLocked(DropAfter)
	}
	if n > c.allowance {
		n = c.allowance
	}
	return n, nil
}

func (c *Conn) consume(n int) {
	c.mu.Lock()
	if c.armed {
		c.allowance -= n
	}
	c.mu.Unlock()
}

// Read implements net.Conn with fault injection.
func (c *Conn) Read(p []byte) (int, error) {
	f := c.sched.next()
	if f.Kind == Latency {
		time.Sleep(f.Delay)
	}
	limit, err := c.admit(len(p))
	if err != nil {
		return 0, err
	}
	switch f.Kind {
	case Reset:
		c.mu.Lock()
		defer c.mu.Unlock()
		return 0, c.breakLocked(Reset)
	case DropAfter:
		c.mu.Lock()
		if !c.armed {
			c.armed = true
			c.allowance = f.N
		}
		if c.allowance < limit {
			limit = c.allowance
		}
		if limit <= 0 {
			defer c.mu.Unlock()
			return 0, c.breakLocked(DropAfter)
		}
		c.mu.Unlock()
	case ShortRead:
		if f.N < limit {
			limit = f.N
		}
		if limit < 1 {
			limit = 1
		}
	}
	n, rerr := c.Conn.Read(p[:limit])
	c.consume(n)
	return n, rerr
}

// Write implements net.Conn with fault injection. A PartialWrite fault
// writes a prefix of p to the wire and then fails, so the peer sees a
// truncated frame — precisely the mid-frame death the event bus must
// survive.
func (c *Conn) Write(p []byte) (int, error) {
	f := c.sched.next()
	if f.Kind == Latency {
		time.Sleep(f.Delay)
	}
	limit, err := c.admit(len(p))
	if err != nil {
		return 0, err
	}
	switch f.Kind {
	case Reset:
		c.mu.Lock()
		defer c.mu.Unlock()
		return 0, c.breakLocked(Reset)
	case DropAfter:
		c.mu.Lock()
		if !c.armed {
			c.armed = true
			c.allowance = f.N
		}
		if c.allowance < limit {
			limit = c.allowance
		}
		if limit <= 0 {
			defer c.mu.Unlock()
			return 0, c.breakLocked(DropAfter)
		}
		c.mu.Unlock()
	case PartialWrite:
		if f.N < limit {
			limit = f.N
		}
		n, _ := c.Conn.Write(p[:limit])
		c.consume(n)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.broken = true
		_ = c.Conn.Close()
		return n, fmt.Errorf("%w: %s after %d bytes", ErrInjected, PartialWrite, n)
	}
	n, werr := c.Conn.Write(p[:limit])
	c.consume(n)
	if werr == nil && n < len(p) {
		// The drop-after allowance truncated this write; finish the
		// connection so the caller sees the failure immediately.
		c.mu.Lock()
		defer c.mu.Unlock()
		return n, c.breakLocked(DropAfter)
	}
	return n, werr
}

// Broken reports whether an injected Reset/DropAfter/PartialWrite has
// permanently failed the connection.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// listener wraps a net.Listener so every accepted connection shares (and
// consumes from) one schedule.
type listener struct {
	net.Listener
	sched *Schedule
}

// wrapListener attaches the schedule to ln.
func wrapListener(ln net.Listener, s *Schedule) *listener {
	return &listener{Listener: ln, sched: s}
}

// Accept wraps each accepted connection.
func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(c, l.sched), nil
}

// Dialer returns a dial function (the shape eventbus.WithDialFunc accepts)
// that dials TCP and wraps every connection in the schedule.
func Dialer(s *Schedule) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return Wrap(c, s), nil
	}
}
