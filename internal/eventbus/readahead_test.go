package eventbus

import (
	"context"
	"strings"
	"testing"
	"time"

	"openmeta/internal/faultnet"
	"openmeta/internal/machine"
	"openmeta/internal/testutil"
	"openmeta/internal/trace"
)

// TestSubscriberReconnectDropsReadAhead cuts a subscriber's connection while
// its buffered reader holds frames nobody has asked for yet. Read-ahead
// belongs to the connection it came from: after the reconnect no frame of
// the dead connection is delivered, the new connection starts with the
// format's metadata, and the records only move forward.
func TestSubscriberReconnectDropsReadAhead(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	const burst = 20
	b, ln, _ := countedBroker(t)
	f := flightFormat(t, machine.Sparc)

	// The subscriber's first connection lives for four operations: the
	// subscribe frame goes out, a read takes in its answer, one read takes in
	// everything the broker has sent since, and the next write — a control
	// call — finds the connection reset.
	dialFn, dials := faultyFirstDial(faultnet.NewSchedule(
		faultnet.Fault{}, faultnet.Fault{}, faultnet.Fault{}, faultnet.Fault{Kind: faultnet.Reset}))
	rec := trace.New(512, 0)
	sub, err := DialSubscriberContext(context.Background(), b.Addr().String(), subCtx(t),
		WithDialFunc(dialFn), WithReconnect(fastReconnect()), WithClientRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(countedStream); err != nil {
		t.Fatal(err)
	}
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	publish := func(from, to int) {
		t.Helper()
		for flt := from; flt <= to; flt++ {
			if err := pub.Publish(countedStream, f, encodeFlight(t, f, flt)); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := func() int {
		t.Helper()
		ev, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ev.Decode()
		if err != nil {
			t.Fatal(err)
		}
		return int(r["fltNum"].(int64))
	}

	// The whole burst is on the subscriber's socket before it reads at all,
	// so its first read buffers every frame and Next hands out the first.
	publish(1, burst)
	testutil.WaitFor(t, 5*time.Second, "the broker to write the burst out", func() bool {
		return b.Stats().Delivered == burst && b.Stats().QueuedFrames == 0 && ln.Conns()[0].Writes.Load() > 0
	})
	if got := next(); got != 1 {
		t.Fatalf("first record is flight %d, want 1", got)
	}

	// The control call hits the reset, redials and replays the subscription,
	// and its answer comes after the replayed one's; the frames 2..burst the
	// old reader still holds go with the old connection.
	if err := sub.Subscribe("other"); err != nil {
		t.Fatalf("Subscribe across the reset = %v", err)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}
	publish(burst+1, burst+3)
	if got := next(); got != burst+1 {
		t.Fatalf("after the reconnect: flight %d, want %d (a frame of the dead connection?)", got, burst+1)
	}

	// On the new connection the metadata came before the first record: Next
	// reads on this goroutine, so the ring as that record is returned holds
	// everything read before it.
	var conns []uint64
	story := make(map[uint64][]string)
	for _, e := range chronological(events(rec)) {
		if e.Kind == "conn_open" {
			conns = append(conns, e.Conn)
		}
		story[e.Conn] = append(story[e.Conn], e.Kind)
	}
	if len(conns) != 2 {
		t.Fatalf("subscriber connections = %d, want 2", len(conns))
	}
	if got := strings.Join(story[conns[1]], " "); got != "conn_open reconnect format_recv" {
		t.Errorf("the new connection's story: %s", got)
	}

	for want := burst + 2; want <= burst+3; want++ {
		if got := next(); got != want {
			t.Fatalf("after the reconnect: flight %d, want %d (a frame of the dead connection?)", got, want)
		}
	}
}
