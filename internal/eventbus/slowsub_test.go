package eventbus

import (
	"net"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// TestSlowSubscriberDoesNotStallBus verifies the bounded outbound queue: a
// subscriber that never reads loses events (counted) while a healthy
// subscriber on the same stream receives everything and the publisher never
// blocks.
func TestSlowSubscriberDoesNotStallBus(t *testing.T) {
	b := newBroker(t)
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	// A bulky format so TCP buffers fill quickly.
	f, err := ctx.RegisterSpec("Bulk", []pbio.FieldSpec{
		{Name: "seq", Kind: pbio.Int, CType: machine.CInt},
		{Name: "payload", Kind: pbio.Uint, CType: machine.CULong, Dynamic: true, CountField: "n"},
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]uint64, 4096) // 32 KB per record

	// The stuck subscriber: subscribes, then never reads again.
	stuckConn, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuckConn.Close()
	if err := writeFrame(stuckConn, frameSubscribe, putStr(nil, "bulk")); err != nil {
		t.Fatal(err)
	}

	// The healthy subscriber.
	good, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Subscribe("bulk"); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "bulk", 2)

	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const msgs = 600 // ~19 MB: far beyond socket buffers + queue depth
	received := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			ev, err := good.Next()
			if err != nil {
				received <- err
				return
			}
			if _, err := ev.Decode(); err != nil {
				received <- err
				return
			}
		}
		received <- nil
	}()

	start := time.Now()
	for i := 0; i < msgs; i++ {
		if err := pub.PublishRecord("bulk", f, pbio.Record{"seq": i, "payload": payload}); err != nil {
			t.Fatal(err)
		}
	}
	publishTime := time.Since(start)

	select {
	case err := <-received:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("healthy subscriber starved behind a stuck one")
	}
	// Regression for the write-only dropped counter: the drop count must be
	// visible through Broker.Stats, and the other delivery counters must be
	// coherent with the run.
	stats := b.Stats()
	if stats.Dropped == 0 {
		t.Error("no events dropped for the stuck subscriber (queue bound not exercised)")
	}
	t.Logf("published %d records in %v; dropped for stuck subscriber: %d",
		msgs, publishTime, stats.Dropped)
	if stats.Published < msgs {
		t.Errorf("Stats().Published = %d, want >= %d", stats.Published, msgs)
	}
	// The healthy subscriber received every record, so at least msgs event
	// frames were delivered.
	if stats.Delivered < msgs {
		t.Errorf("Stats().Delivered = %d, want >= %d", stats.Delivered, msgs)
	}
}

// TestDroppedCountSurvivesDisconnect verifies the obsv fold-in: drops are
// counted broker-wide, not on the (transient) connection, so tearing the
// stuck subscriber down must not zero the count. Each drop is also counted
// against its stream and format in wire.dropped.records.
func TestDroppedCountSurvivesDisconnect(t *testing.T) {
	reg := obsv.New()
	b, err := Listen("127.0.0.1:0", withSlog(quietLogger), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Tiny", []pbio.FieldSpec{
		{Name: "seq", Kind: pbio.Int, CType: machine.CInt},
		{Name: "pad", Kind: pbio.Uint, CType: machine.CULong, Count: 512},
	})
	if err != nil {
		t.Fatal(err)
	}

	stuckConn, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(stuckConn, frameSubscribe, putStr(nil, "tiny")); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "tiny", 1)

	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	before := b.Stats().Dropped
	rec := pbio.Record{"seq": 1}
	deadline := time.Now().Add(20 * time.Second)
	for b.Stats().Dropped == before {
		if time.Now().After(deadline) {
			t.Fatal("no drops observed before deadline")
		}
		if err := pub.PublishRecord("tiny", f, rec); err != nil {
			t.Fatal(err)
		}
	}
	droppedWhileConnected := b.Stats().Dropped

	// Tear the stuck subscriber down; the count must persist.
	_ = stuckConn.Close()
	deadline = time.Now().Add(10 * time.Second)
	for b.SubscriberCount("tiny") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stuck subscriber never unregistered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := b.Stats().Dropped; got < droppedWhileConnected {
		t.Errorf("Stats().Dropped fell from %d to %d after disconnect", droppedWhileConnected, got)
	}
	const labeled = `eventbus.wire.dropped.records{stream="tiny",format="Tiny"}`
	testutil.WaitFor(t, 2*time.Second, labeled+" to match Stats().Dropped", func() bool {
		return reg.Snapshot()[labeled] == b.Stats().Dropped
	})
}

// TestStalledSubscriberDropKeepsRouting: the broker drops a subscriber whose
// format frame stalled on the reader goroutine of the connection that
// published it, and that connection's next publish is routed at once. The
// dropped subscriber's writer is blocked in a write nothing will complete,
// so its socket is closed rather than flushed.
func TestStalledSubscriberDropKeepsRouting(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	b, err := Listen("127.0.0.1:0", withSlog(quietLogger), WithObserver(obsv.New()), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bulk, rec := bulkRecord(t, 4096) // 32 KiB records fill the socket fast

	// The stuck subscriber reads the answer to its subscribe, then nothing.
	// Its receive buffer is held small.
	stuck, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	if err := stuck.(*net.TCPConn).SetReadBuffer(16 << 10); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(stuck, frameSubscribe, putStr(nil, "bulk")); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readFrame(stuck, nil); err != nil || typ != frameSubscribed {
		t.Fatalf("answer to a subscribe: frame %d, %v", typ, err)
	}
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// 16 MiB is past both ends' socket buffers (the broker's grows to 4 MiB
	// at most on a default Linux), so by then the writer is blocked in a
	// write, and a drop says the queue is full behind it.
	published := int64(0)
	for deadline := time.Now().Add(20 * time.Second); published < 512 || b.Stats().Dropped == 0; published++ {
		if time.Now().After(deadline) {
			t.Fatal("no drops observed before deadline")
		}
		if err := pub.Publish("bulk", bulk, rec); err != nil {
			t.Fatal(err)
		}
	}
	// A format new to the stream stalls mustSendStall on the stuck queue;
	// the record behind it, on another stream, waits for the drop.
	f := flightFormat(t, machine.X86_64)
	for _, stream := range []string{"bulk", "after"} {
		if err := pub.Publish(stream, f, encodeFlight(t, f, 1)); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, 3*mustSendStall, "the format frame to stall", func() bool { return b.Stats().SlowSubscriberStalls == 1 })
	stalled := time.Now()
	testutil.WaitFor(t, 10*time.Second, "the next publish to be routed", func() bool { return b.Stats().Published == published+2 })
	if d := time.Since(stalled); d > time.Second {
		t.Errorf("the publish behind the stall was routed %v after it, want under 1s", d)
	}
}
