package eventbus

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmeta/internal/faultnet"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/retry"
	"openmeta/internal/testutil"
)

// fastReconnect keeps redial backoff negligible in tests.
func fastReconnect() retry.Policy {
	return retry.Policy{
		MaxAttempts: 6,
		Initial:     time.Millisecond,
		Max:         10 * time.Millisecond,
		Seed:        1,
	}
}

// faultyFirstDial returns a DialFunc whose first connection is wrapped in
// the given schedule; later dials are clean. It also reports how many
// dials happened.
func faultyFirstDial(sched *faultnet.Schedule) (DialFunc, *atomic.Int64) {
	var dials atomic.Int64
	fn := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return faultnet.Wrap(conn, sched), nil
		}
		return conn, nil
	}
	return fn, &dials
}

func encodeFlight(t testing.TB, f *pbio.Format, flt int) []byte {
	t.Helper()
	data, err := f.Encode(pbio.Record{"cntrID": "ZTL", "fltNum": flt, "eta": []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func wantFlt(t *testing.T, rec pbio.Record, want int) {
	t.Helper()
	if rec["fltNum"] != int64(want) {
		t.Fatalf("fltNum = %v, want %d", rec["fltNum"], want)
	}
}

// TestPublisherReconnectMidStream is the ISSUE's acceptance scenario: the
// publisher's broker connection dies mid-frame partway through a stream,
// the publisher reconnects with backoff, re-announces and re-sends its
// format metadata on the fresh connection (the broker rejects publishes
// referencing formats it has not seen on that connection, so delivery
// proves the re-send), and the subscriber keeps decoding records.
func TestPublisherReconnectMidStream(t *testing.T) {
	testutil.NoGoroutineLeak(t) // nothing outlives the Close of broker, publisher, subscriber
	before := obsv.Default().Snapshot()
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)

	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}

	// Byte budget that expires 3 bytes into the second publish frame:
	// announce + format metadata + the first record flow, then the wire
	// dies mid-frame-header.
	rec1 := encodeFlight(t, f, 1001)
	meta := pbio.MarshalMeta(f)
	stream := "flights"
	budget := (5 + 2 + len(stream)) + // announce frame
		(5 + len(meta)) + // format frame
		(5 + 2 + len(stream) + 8 + len(rec1)) + // first publish frame
		3 // then die mid-header of the next frame
	dialFn, dials := faultyFirstDial(faultnet.NewSchedule(
		faultnet.Fault{Kind: faultnet.DropAfter, N: budget}))

	pub, err := DialPublisherContext(context.Background(), b.Addr().String(),
		WithDialFunc(dialFn), WithReconnect(fastReconnect()))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := pub.Announce(stream); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(stream, f, rec1); err != nil {
		t.Fatalf("first Publish = %v", err)
	}
	// This publish crosses the byte budget: the connection breaks mid-frame
	// and the reconnect layer must redial, re-announce, re-send the format
	// metadata (sentFormats was reset) and deliver the record.
	rec2 := encodeFlight(t, f, 2002)
	if err := pub.Publish(stream, f, rec2); err != nil {
		t.Fatalf("Publish across the fault = %v", err)
	}

	// A Publish that finds the link busy returns once its record is queued,
	// and the link's writer redials: the records arrive first.
	for i, want := range []int{1001, 2002} {
		ev, err := sub.Next()
		if err != nil {
			t.Fatalf("Next %d = %v", i, err)
		}
		rec, err := ev.Decode()
		if err != nil {
			t.Fatalf("Decode %d = %v", i, err)
		}
		wantFlt(t, rec, want)
		if !reflect.DeepEqual(rec["eta"], []uint64{1, 2}) {
			t.Fatalf("record %d eta = %v", i, rec["eta"])
		}
	}
	if got := dials.Load(); got < 2 {
		t.Fatalf("dials = %d, want >= 2 (a reconnect happened)", got)
	}

	d := obsv.Delta(before, obsv.Default().Snapshot())
	if d["eventbus.pub.reconnects"] < 1 {
		t.Errorf("eventbus.pub.reconnects delta = %d, want >= 1", d["eventbus.pub.reconnects"])
	}
}

// TestPublisherMidWriteResetNoDeadlock is the lock-path satellite: Publish
// holds p.mu across the network write; a mid-write connection reset must
// surface as an error and leave the publisher usable (further calls return
// promptly with errors, no deadlock) when reconnect is off.
func TestPublisherMidWriteResetNoDeadlock(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)

	// The first write of the first frame dies after 2 bytes.
	sched := faultnet.NewSchedule(faultnet.Fault{Kind: faultnet.PartialWrite, N: 2})
	dialFn := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return faultnet.Wrap(conn, sched), nil
	}
	pub, err := DialPublisherContext(context.Background(), b.Addr().String(), WithDialFunc(dialFn))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	rec := encodeFlight(t, f, 7)
	done := make(chan struct{})
	var pubErr, againErr, annErr error
	go func() {
		defer close(done)
		pubErr = pub.Publish("flights", f, rec)
		againErr = pub.Publish("flights", f, rec)
		annErr = pub.Announce("flights")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher deadlocked after mid-write reset")
	}
	if !errors.Is(pubErr, faultnet.ErrInjected) {
		t.Fatalf("Publish during reset = %v, want ErrInjected", pubErr)
	}
	if !errors.Is(againErr, ErrClosed) {
		t.Fatalf("Publish after reset = %v, want wraps ErrClosed", againErr)
	}
	if !errors.Is(annErr, ErrClosed) {
		t.Fatalf("Announce after reset = %v, want wraps ErrClosed", annErr)
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("Close after reset = %v", err)
	}
	if err := pub.Publish("flights", f, rec); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish after Close = %v, want ErrClosed", err)
	}
}

// publishUntil republishes rec every few milliseconds until the subscriber
// goroutine reports a result — records published while the subscriber's
// replacement connection is still registering with the broker are lost (no
// retention), so a single post-reconnect publish would race.
func publishUntil(t *testing.T, pub *Publisher, stream string, f *pbio.Format, rec []byte, done <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := pub.Publish(stream, f, rec); err != nil {
			t.Errorf("republish: %v", err)
			return
		}
		select {
		case <-done:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestSubscriberReconnect kills the subscriber's connection after the
// first record (exact byte budget: subscribe out, format + one event in);
// the subscriber redials, replays its subscription, receives the stream's
// format metadata again from the broker, and decodes the next record.
func TestSubscriberReconnect(t *testing.T) {
	testutil.NoGoroutineLeak(t) // nothing outlives the Close of broker, publisher, subscriber
	before := obsv.Default().Snapshot()
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)

	rec1 := encodeFlight(t, f, 11)
	meta := pbio.MarshalMeta(f)
	stream := "flights"
	budget := (5 + 2 + len(stream)) + // subscribe frame out
		(5 + 2 + len(stream)) + // its answer in
		(5 + len(meta)) + // format frame in
		(5 + 2 + len(stream) + 8 + len(rec1)) // first event frame in
	dialFn, dials := faultyFirstDial(faultnet.NewSchedule(
		faultnet.Fault{Kind: faultnet.DropAfter, N: budget}))

	sub, err := DialSubscriberContext(context.Background(), b.Addr().String(), subCtx(t),
		WithDialFunc(dialFn), WithReconnect(fastReconnect()))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(stream); err != nil {
		t.Fatal(err)
	}

	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(stream, f, rec1); err != nil {
		t.Fatal(err)
	}

	ev, err := sub.Next()
	if err != nil {
		t.Fatalf("first Next = %v", err)
	}
	rec, err := ev.Decode()
	if err != nil {
		t.Fatalf("first Decode = %v", err)
	}
	wantFlt(t, rec, 11)

	// The next read crosses the byte budget and the connection dies; Next
	// must transparently reconnect and replay the subscription.
	type result struct {
		rec pbio.Record
		err error
	}
	got := make(chan result, 1)
	done := make(chan struct{})
	go func() {
		ev, err := sub.Next()
		r := result{err: err}
		if err == nil {
			r.rec, r.err = ev.Decode()
		}
		close(done)
		got <- r
	}()
	publishUntil(t, pub, stream, f, encodeFlight(t, f, 22), done)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("Next across reconnect = %v", r.err)
		}
		wantFlt(t, r.rec, 22)
	case <-time.After(5 * time.Second):
		t.Fatal("no record after reconnect")
	}
	if got := dials.Load(); got < 2 {
		t.Fatalf("dials = %d, want >= 2", got)
	}

	d := obsv.Delta(before, obsv.Default().Snapshot())
	if d["eventbus.sub.reconnects"] < 1 {
		t.Errorf("eventbus.sub.reconnects delta = %d, want >= 1", d["eventbus.sub.reconnects"])
	}
}

// TestSubscriberScopeSurvivesReconnect: a field-scoped subscription is
// replayed with its scope intact, so post-reconnect records still arrive
// projected. The first connection is killed from the test side after the
// first delivery.
func TestSubscriberScopeSurvivesReconnect(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)
	stream := "flights"

	var mu sync.Mutex
	var conns []net.Conn
	var dials atomic.Int64
	dialFn := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		dials.Add(1)
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		return conn, nil
	}

	sub, err := DialSubscriberContext(context.Background(), b.Addr().String(), subCtx(t),
		WithDialFunc(dialFn), WithReconnect(fastReconnect()))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.SubscribeFields(stream, "fltNum"); err != nil {
		t.Fatal(err)
	}

	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish(stream, f, encodeFlight(t, f, 31)); err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next()
	if err != nil {
		t.Fatalf("first Next = %v", err)
	}
	rec, err := ev.Decode()
	if err != nil {
		t.Fatalf("Decode = %v", err)
	}
	if _, leaked := rec["cntrID"]; leaked {
		t.Fatal("scope leaked cntrID before reconnect")
	}
	wantFlt(t, rec, 31)

	// Kill the first connection out from under the subscriber.
	mu.Lock()
	_ = conns[0].Close()
	mu.Unlock()

	type result struct {
		rec pbio.Record
		err error
	}
	got := make(chan result, 1)
	done := make(chan struct{})
	go func() {
		ev, err := sub.Next()
		r := result{err: err}
		if err == nil {
			r.rec, r.err = ev.Decode()
		}
		close(done)
		got <- r
	}()
	publishUntil(t, pub, stream, f, encodeFlight(t, f, 32), done)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("Next across reconnect = %v", r.err)
		}
		if _, leaked := r.rec["cntrID"]; leaked {
			t.Fatal("scope leaked cntrID after reconnect: subscription replay lost its field scope")
		}
		wantFlt(t, r.rec, 32)
	case <-time.After(5 * time.Second):
		t.Fatal("no record after reconnect")
	}
	if got := dials.Load(); got < 2 {
		t.Fatalf("dials = %d, want >= 2", got)
	}
}

// TestPublisherNoReconnectStaysDown: without WithReconnect a broken
// publisher does not silently redial.
func TestPublisherNoReconnectStaysDown(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)
	dialFn, dials := faultyFirstDial(faultnet.NewSchedule(faultnet.Fault{Kind: faultnet.Reset}))
	pub, err := DialPublisherContext(context.Background(), b.Addr().String(), WithDialFunc(dialFn))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	rec := encodeFlight(t, f, 1)
	if err := pub.Publish("flights", f, rec); !errors.Is(err, faultnet.ErrInjected) {
		t.Fatalf("Publish = %v, want injected reset", err)
	}
	if err := pub.Publish("flights", f, rec); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Publish = %v, want ErrClosed", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1 (no auto-redial without WithReconnect)", got)
	}
}

// TestBrokerWriteDeadlineOption exercises the new option end to end: a
// broker with a short flush deadline still delivers cleanly.
func TestBrokerWriteDeadlineOption(t *testing.T) {
	b, err := Listen("127.0.0.1:0", withSlog(quietLogger), WithWriteDeadline(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.writeDeadline != 50*time.Millisecond {
		t.Fatalf("writeDeadline = %v", b.writeDeadline)
	}
	f := flightFormat(t, machine.Sparc)
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("flights", f, encodeFlight(t, f, 5)); err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	wantFlt(t, rec, 5)
}

// TestFaultnetDialer exercises faultnet.Dialer's DialFunc shape directly
// against the broker.
func TestFaultnetDialer(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)
	var dial DialFunc = faultnet.Dialer(faultnet.NewSchedule(
		faultnet.Fault{Kind: faultnet.Latency, Delay: time.Millisecond}))
	pub, err := DialPublisherContext(context.Background(), b.Addr().String(), WithDialFunc(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Publish("flights", f, encodeFlight(t, f, 9)); err != nil {
		t.Fatalf("Publish through faultnet dialer = %v", err)
	}
}
