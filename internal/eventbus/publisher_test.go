package eventbus

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"openmeta/internal/faultnet"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// subscribedTo dials a subscriber of stream on b.
func subscribedTo(t *testing.T, b *Broker, stream string) *Subscriber {
	t.Helper()
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	if err := sub.Subscribe(stream); err != nil {
		t.Fatal(err)
	}
	return sub
}

// nextFlight has sub receive one record and returns its number.
func nextFlight(t *testing.T, sub *Subscriber) int {
	t.Helper()
	ev, err := sub.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	rec, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return int(rec["fltNum"].(int64))
}

// expectFlights has sub receive records numbered want, in order.
func expectFlights(t *testing.T, sub *Subscriber, want ...int) {
	t.Helper()
	for _, flt := range want {
		if got := nextFlight(t, sub); got != flt {
			t.Fatalf("record %d arrived, want %d", got, flt)
		}
	}
}

// heldPublisher dials a publisher whose first connection's writes pass g and
// then sched; later dials are plain.
func heldPublisher(t *testing.T, b *Broker, g *gates, sched *faultnet.Schedule, opts ...ClientOption) (*Publisher, *int) {
	t.Helper()
	dials := new(int) // read after the dials, which happen under the link's lock
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		if *dials++; *dials == 1 {
			return gatedConn{faultnet.Wrap(c, sched), g}, nil
		}
		return c, nil
	}
	pub, err := DialPublisherContext(context.Background(), b.Addr().String(), append(opts, WithDialFunc(dial))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	return pub, dials
}

// holdAndQueue publishes recs[0] on an idle link while g holds its write,
// so that the rest are queued behind it, then lets the write go and waits
// for recs[0]'s Publish to return. The link's writer then sends the rest
// in one Write.
func holdAndQueue(t *testing.T, pub *Publisher, g *gates, stream string, fs []*pbio.Format, recs [][]byte) {
	t.Helper()
	g.writes.shut()
	defer g.writes.open()
	first := make(chan error, 1)
	go func() { first <- pub.Publish(stream, fs[0], recs[0]) }()
	testutil.WaitFor(t, 5*time.Second, "the first write to reach the gate", func() bool { return g.writes.waiting.Load() == 1 })
	for i := 1; i < len(recs); i++ {
		if err := pub.Publish(stream, fs[i], recs[i]); err != nil {
			t.Fatalf("queued Publish %d: %v", i, err)
		}
	}
	g.writes.open()
	if err := <-first; err != nil {
		t.Fatalf("held Publish: %v", err)
	}
}

// TestPublisherBatchedWriteErrorIsSticky: a failed batched write has no
// caller, so its error is returned by the next call — Publish, or Close if
// none comes — once; calls after it fail with ErrClosed. The frames the
// failed Write wholly sent are delivered.
func TestPublisherBatchedWriteErrorIsSticky(t *testing.T) {
	f := flightFormat(t, machine.Sparc)
	recs := [][]byte{encodeFlight(t, f, 0), encodeFlight(t, f, 1), encodeFlight(t, f, 2), encodeFlight(t, f, 3)}
	fs := []*pbio.Format{f, f, f, f}
	frame := pbio.FrameHeaderLen + 2 + len("flights") + 8 + len(recs[1])
	for _, next := range []string{"Publish", "Close"} {
		t.Run(next, func(t *testing.T) {
			b := newBroker(t)
			sub := subscribedTo(t, b, "flights")
			// The first write, the held one, passes. The writer's, with records
			// 1-3, dies two bytes into record 2.
			g := new(gates)
			pub, _ := heldPublisher(t, b, g, faultnet.NewSchedule(faultnet.Fault{}, faultnet.Fault{Kind: faultnet.PartialWrite, N: frame + 2}))
			holdAndQueue(t, pub, g, "flights", fs, recs)
			testutil.WaitFor(t, 5*time.Second, "the batched write to fail", func() bool {
				pub.mu.Lock()
				defer pub.mu.Unlock()
				return pub.unreported != nil
			})
			if next == "Publish" {
				if err := pub.Publish("flights", f, recs[0]); !errors.Is(err, faultnet.ErrInjected) {
					t.Fatalf("Publish after the failed batch = %v, want the injected error", err)
				}
				if err := pub.Publish("flights", f, recs[0]); !errors.Is(err, ErrClosed) {
					t.Fatalf("second Publish = %v, want ErrClosed", err)
				}
				if err := pub.Close(); err != nil {
					t.Fatalf("Close = %v, want nil: the error was returned", err)
				}
			} else if err := pub.Close(); !errors.Is(err, faultnet.ErrInjected) {
				t.Fatalf("Close after the failed batch = %v, want the injected error", err)
			}
			expectFlights(t, sub, 0, 1)
		})
	}
}

// TestPublisherReconnectResendsTail: with WithReconnect a failed batched
// write redials. The records it wholly sent count as sent; the rest
// go again on the new connection, in order, each format's metadata first —
// that of a format the old connection carried and that of one whose first
// frame was in the unsent tail. Nothing arrives twice. The broker reads the
// two connections apart, so only each one's own order is kept.
func TestPublisherReconnectResendsTail(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	b := newBroker(t)
	sub := subscribedTo(t, b, "flights")
	f, g := flightFormat(t, machine.Sparc), flightFormat(t, machine.X86_64)
	fs := []*pbio.Format{f, f, f, g}
	recs := [][]byte{encodeFlight(t, f, 0), encodeFlight(t, f, 1), encodeFlight(t, f, 2), encodeFlight(t, g, 3)}
	frame := pbio.FrameHeaderLen + 2 + len("flights") + 8 + len(recs[1])
	gt := new(gates)
	pub, dials := heldPublisher(t, b, gt, faultnet.NewSchedule(faultnet.Fault{}, faultnet.Fault{Kind: faultnet.PartialWrite, N: frame + 2}),
		WithReconnect(fastReconnect()))
	holdAndQueue(t, pub, gt, "flights", fs, recs)
	at := make(map[int]int)
	for i := 0; i < len(recs); i++ {
		at[nextFlight(t, sub)] = i
	}
	if len(at) != len(recs) || at[0] > at[1] || at[2] > at[3] {
		t.Fatalf("records arrived at %v, want 0 to 3 once each, 0 before 1 and 2 before 3", at)
	}
	if err := pub.Publish("flights", g, encodeFlight(t, g, 4)); err != nil {
		t.Fatal(err)
	}
	expectFlights(t, sub, 4)
	if err := pub.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if *dials != 2 {
		t.Errorf("dials = %d, want 2", *dials)
	}
}

// TestPublisherCloseFlushesQueued: Close waits for the write in flight,
// sends what is queued behind it, and leaves no goroutine behind.
func TestPublisherCloseFlushesQueued(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	b := newBroker(t)
	sub := subscribedTo(t, b, "flights")
	f := flightFormat(t, machine.Sparc)
	g := new(gates)
	pub, _ := heldPublisher(t, b, g, nil)
	g.writes.shut()
	defer g.writes.open()
	first := make(chan error, 1)
	go func() { first <- pub.Publish("flights", f, encodeFlight(t, f, 0)) }()
	testutil.WaitFor(t, 5*time.Second, "the first write to reach the gate", func() bool { return g.writes.waiting.Load() == 1 })
	for i := 1; i < 20; i++ {
		if err := pub.Publish("flights", f, encodeFlight(t, f, i)); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- pub.Close() }()
	testutil.WaitFor(t, 5*time.Second, "Close to begin", func() bool {
		pub.mu.Lock()
		defer pub.mu.Unlock()
		return pub.closed
	})
	g.writes.open()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
	want := make([]int, 20)
	for i := range want {
		want[i] = i
	}
	expectFlights(t, sub, want...)
}

// TestPublisherConcurrentGoroutinesKeepOrder: goroutines publishing on one
// Publisher share its batch. Each one's records arrive complete and in its
// order, and Close sends whatever is still queued.
func TestPublisherConcurrentGoroutinesKeepOrder(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	const goroutines, per = 4, 500
	b, err := Listen("127.0.0.1:0", withSlog(quietLogger), WithObserver(obsv.New()), WithQueueDepth(2*goroutines*per))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sub := subscribedTo(t, b, "flights")
	f := flightFormat(t, machine.X86_64)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for id := 0; id < goroutines; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < per; seq++ {
				if err := pub.PublishRecord("flights", f, pbio.Record{"cntrID": "ZTL", "fltNum": id*per + seq}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := pub.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	next := make([]int, goroutines)
	for i := 0; i < goroutines*per; i++ {
		ev, err := sub.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rec, err := ev.Decode()
		if err != nil {
			t.Fatal(err)
		}
		flt := int(rec["fltNum"].(int64))
		id, seq := flt/per, flt%per
		if seq != next[id] {
			t.Fatalf("goroutine %d: record %d arrived after %d", id, seq, next[id]-1)
		}
		next[id]++
	}
	if d := b.Stats().Dropped; d != 0 {
		t.Errorf("broker dropped %d records", d)
	}
}
