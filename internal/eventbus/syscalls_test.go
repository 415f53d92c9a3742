package eventbus

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// gate keeps a broker off its sockets while the test holds it shut: a call
// that starts then waits for open. It stands in for a broker that is busy, so
// that how many frames are waiting when it gets to a socket is the test's
// doing and not the scheduler's. Opening an open gate does nothing, so a test
// defers open right after shut and a t.Fatal in between cannot leave the
// broker's goroutines stuck behind it.
type gate struct {
	mu      sync.RWMutex
	isShut  atomic.Bool
	waiting atomic.Int64 // calls at the gate right now
}

func (g *gate) shut() { g.mu.Lock(); g.isShut.Store(true) }
func (g *gate) open() {
	if g.isShut.CompareAndSwap(true, false) {
		g.mu.Unlock()
	}
}
func (g *gate) pass() {
	g.waiting.Add(1)
	g.mu.RLock()
	g.waiting.Add(-1)
	g.mu.RUnlock()
}

// gates are the two a broker's connections go through.
type gates struct{ reads, writes gate }

type gatedConn struct {
	net.Conn
	g *gates
}

func (c gatedConn) Read(p []byte) (int, error)  { c.g.reads.pass(); return c.Conn.Read(p) }
func (c gatedConn) Write(p []byte) (int, error) { c.g.writes.pass(); return c.Conn.Write(p) }

type gatedListener struct {
	net.Listener
	g *gates
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return gatedConn{c, l.g}, nil
}

// countedBroker starts a broker behind a counting listener: every connection
// it accepts has its reads and writes counted on its own, in accept order.
// The calls counted are the ones that got past the gates.
func countedBroker(t *testing.T, opts ...BrokerOption) (*Broker, *testutil.CountingListener, *gates) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, g := testutil.CountListener(ln), new(gates)
	// Counters of its own: the tests wait on Stats.
	opts = append([]BrokerOption{withSlog(quietLogger), WithObserver(obsv.New())}, opts...)
	b := NewBroker(gatedListener{cl, g}, opts...)
	t.Cleanup(func() { _ = b.Close() })
	return b, cl, g
}

// countedDial dials TCP and counts the client side of the connection, the
// calls that got past g.
func countedDial(counts *testutil.IOCounts, g *gates) DialFunc {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return gatedConn{testutil.CountConn(c, counts), g}, nil
	}
}

// countedBus is one publisher and n subscribers of one stream around a
// counted broker. The subscribers connect first, one at a time, so the
// broker's connection i is subscriber i's and its last one the publisher's.
type countedBus struct {
	b        *Broker
	gates    *gates
	f        *pbio.Format
	rec      []byte
	pub      *Publisher
	subs     []*Subscriber
	client   []*testutil.IOCounts // subscriber i's side of its connection
	broker   []*testutil.IOCounts // the broker's side of it
	pubIn    *testutil.IOCounts   // the broker's side of the publisher's connection
	pubOut   *testutil.IOCounts   // the publisher's side of it
	pubGates *gates               // the publisher's calls go through these
}

const countedStream = "flights"

func newCountedBus(t *testing.T, subscribers int) *countedBus {
	t.Helper()
	b, ln, g := countedBroker(t)
	bus := &countedBus{b: b, gates: g, f: flightFormat(t, machine.X86_64)}
	bus.rec = encodeFlight(t, bus.f, 1)
	accepted := func(n int) {
		testutil.WaitFor(t, 5*time.Second, "the broker to accept the connection", func() bool { return len(ln.Conns()) == n })
	}
	for i := 0; i < subscribers; i++ {
		counts := new(testutil.IOCounts)
		sub, err := DialSubscriber(b.Addr().String(), subCtx(t), WithDialFunc(countedDial(counts, new(gates))))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sub.Close() })
		accepted(i + 1)
		if err := sub.Subscribe(countedStream); err != nil {
			t.Fatal(err)
		}
		bus.subs, bus.client = append(bus.subs, sub), append(bus.client, counts)
	}
	bus.pubOut, bus.pubGates = new(testutil.IOCounts), new(gates)
	pub, err := DialPublisher(b.Addr().String(), WithDialFunc(countedDial(bus.pubOut, bus.pubGates)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	accepted(subscribers + 1)
	bus.pub = pub
	conns := ln.Conns()
	bus.broker, bus.pubIn = conns[:subscribers], conns[subscribers]
	return bus
}

// wireBytes is what n records cost on the publisher's connection and again
// on each subscriber's: the format's metadata once, then one frame per record
// (a plain event frame is the publish frame under another type byte). The
// calls a record takes may change; these bytes may not.
func (bus *countedBus) wireBytes(n int) int64 {
	meta := pbio.FrameHeaderLen + len(pbio.MarshalMeta(bus.f))
	record := pbio.FrameHeaderLen + 2 + len(countedStream) + 8 + len(bus.rec)
	return int64(meta + n*record)
}

// subscriberBytes is what the broker writes to each subscriber for n
// records: the answer to its subscribe, then the records' bytes.
func (bus *countedBus) subscriberBytes(n int) int64 {
	return int64(pbio.FrameHeaderLen+2+len(countedStream)) + bus.wireBytes(n)
}

// check holds every counted connection to at most perRecord calls per record
// (plus the handful a connection spends on subscribing and on its one format
// frame) and to exactly the bytes the records take.
func (bus *countedBus) check(t *testing.T, n int, perRecord float64) {
	t.Helper()
	limit := int64(perRecord*float64(n)) + 4
	want, wantSub := bus.wireBytes(n), bus.subscriberBytes(n)
	if got := bus.pubOut.Writes.Load(); got > limit {
		t.Errorf("publisher writes: %d for %d records (%.2f each), want at most %.2f each",
			got, n, float64(got)/float64(n), perRecord)
	}
	if got := bus.pubOut.WrittenBytes.Load(); got != want {
		t.Errorf("publisher wrote %d bytes, want %d", got, want)
	}
	if got := bus.pubIn.Reads.Load(); got > limit {
		t.Errorf("broker reads on the publisher's connection: %d for %d records (%.2f each), want at most %.2f each",
			got, n, float64(got)/float64(n), perRecord)
	}
	if got := bus.pubIn.ReadBytes.Load(); got != want {
		t.Errorf("broker read %d bytes from the publisher, want %d", got, want)
	}
	for i := range bus.subs {
		// A write is counted when it returns, which the subscriber's read of
		// the bytes can beat.
		testutil.Poll(time.Second, func() bool { return bus.broker[i].WrittenBytes.Load() >= wantSub })
		if got := bus.broker[i].Writes.Load(); got > limit {
			t.Errorf("broker writes to subscriber %d: %d for %d records (%.2f each), want at most %.2f each",
				i, got, n, float64(got)/float64(n), perRecord)
		}
		if got := bus.client[i].Reads.Load(); got > limit {
			t.Errorf("subscriber %d reads: %d for %d records (%.2f each), want at most %.2f each",
				i, got, n, float64(got)/float64(n), perRecord)
		}
		if w, r := bus.broker[i].WrittenBytes.Load(), bus.client[i].ReadBytes.Load(); w != wantSub || r != wantSub {
			t.Errorf("subscriber %d: broker wrote %d bytes, subscriber read %d, want %d", i, w, r, wantSub)
		}
	}
	t.Logf("%d records: %.2f publisher writes, %.2f broker reads, %.2f broker writes, %.2f subscriber reads per record",
		n, float64(bus.pubOut.Writes.Load())/float64(n), float64(bus.pubIn.Reads.Load())/float64(n),
		float64(bus.broker[0].Writes.Load())/float64(n), float64(bus.client[0].Reads.Load())/float64(n))
}

// drain has every subscriber receive n records.
func (bus *countedBus) drain(t *testing.T, n int) {
	t.Helper()
	for i, sub := range bus.subs {
		for k := 0; k < n; k++ {
			if _, err := sub.Next(); err != nil {
				t.Fatalf("subscriber %d, record %d: %v", i, k, err)
			}
		}
	}
}

// burst moves n records one hop at a time, so that each hop finds the whole
// burst waiting for it: the publisher's first record is held in its write
// while the rest are published behind it, the broker is kept from reading
// until the publisher has sent them all and from writing until it has routed
// them, and the subscribers read once the broker has written every one out.
func (bus *countedBus) burst(t *testing.T, n int) {
	t.Helper()
	bus.gates.reads.shut()
	defer bus.gates.reads.open()
	bus.gates.writes.shut()
	defer bus.gates.writes.open()
	fs, recs := make([]*pbio.Format, n), make([][]byte, n)
	for i := range fs {
		fs[i], recs[i] = bus.f, bus.rec
	}
	holdAndQueue(t, bus.pub, bus.pubGates, countedStream, fs, recs)
	testutil.WaitFor(t, 10*time.Second, "the publisher to write the burst", func() bool {
		return bus.pubOut.WrittenBytes.Load() == bus.wireBytes(n)
	})
	bus.gates.reads.open()
	testutil.WaitFor(t, 10*time.Second, "the broker to route the burst", func() bool {
		return bus.b.Stats().Delivered == int64(n*len(bus.subs))
	})
	bus.gates.writes.open()
	delivered := bus.subscriberBytes(n)
	testutil.WaitFor(t, 10*time.Second, "the broker to write the burst out", func() bool {
		for _, c := range bus.broker {
			if c.WrittenBytes.Load() != delivered {
				return false
			}
		}
		return true
	})
	bus.drain(t, n)
}

// TestSyscallsPerRecordOneInFlight pins the cost of a record that travels
// alone — published, delivered, then the next: one write at the publisher,
// on the caller, one read at the broker, one write, one read at the
// subscriber. There is nothing to batch, and the header and the payload of a
// frame no longer take a read each.
func TestSyscallsPerRecordOneInFlight(t *testing.T) {
	const n = 1000
	bus := newCountedBus(t, 1)
	for i := 0; i < n; i++ {
		if err := bus.pub.Publish(countedStream, bus.f, bus.rec); err != nil {
			t.Fatal(err)
		}
		bus.drain(t, 1)
	}
	bus.check(t, n, 1.05)
}

// TestSyscallsPerRecordBurst pins the cost of records that travel together:
// when 200 are published while the publisher's first write is in flight and
// sent before the subscriber reads, each side moves many of them per call.
func TestSyscallsPerRecordBurst(t *testing.T) {
	const n = 200
	bus := newCountedBus(t, 1)
	bus.burst(t, n)
	bus.check(t, n, 0.25)
}

// TestSyscallsPerRecordFanoutBurst is the burst to three plain subscribers:
// each subscriber's connection is batched on its own.
func TestSyscallsPerRecordFanoutBurst(t *testing.T) {
	const n = 200
	bus := newCountedBus(t, 3)
	bus.burst(t, n)
	bus.check(t, n, 0.25)
}
