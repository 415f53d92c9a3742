package eventbus

import (
	"bytes"
	"net"
	"runtime"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// writeLoopRig is one raw client connection to a counted broker and the
// broker's side of it, for driving writeLoop by hand: frames are put on the
// connection's queue while its writer is held at the gate.
type writeLoopRig struct {
	b      *Broker
	bc     *brokerConn
	gates  *gates
	counts *testutil.IOCounts
	client net.Conn
}

func newWriteLoopRig(t *testing.T) *writeLoopRig {
	t.Helper()
	b, ln, g := countedBroker(t)
	client, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	rig := &writeLoopRig{b: b, gates: g, client: client}
	testutil.WaitFor(t, 5*time.Second, "the broker to register the connection", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		for bc := range b.conns {
			rig.bc = bc
		}
		return rig.bc != nil
	})
	rig.counts = ln.Conns()[0]
	return rig
}

// send queues the payloads behind a plug frame the writer is stuck on, so all
// of them are waiting when it comes back to the queue, lets the writer go,
// reads the frames back on the client side and reports how many writes the
// payloads took.
func (rig *writeLoopRig) send(t *testing.T, payloads ...[]byte) (writes int64) {
	t.Helper()
	enqueue := func(p []byte) {
		if queued, err := rig.bc.send(frameEvent, p, mustSend); err != nil || !queued {
			t.Fatalf("enqueue: queued %v, err %v", queued, err)
		}
	}
	rig.gates.writes.shut()
	defer rig.gates.writes.open()
	enqueue([]byte("plug"))
	testutil.WaitFor(t, 5*time.Second, "the writer to get to writing the plug frame", func() bool {
		return rig.gates.writes.waiting.Load() == 1
	})
	for _, p := range payloads {
		enqueue(p)
	}
	before := rig.counts.Writes.Load()
	rig.gates.writes.open()

	var buf []byte
	for i, want := range append([][]byte{[]byte("plug")}, payloads...) {
		typ, got, newBuf, err := readFrame(rig.client, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = newBuf
		if typ != frameEvent || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d, %d bytes starting %q; want %d bytes starting %q",
				i, typ, len(got), got[:min(8, len(got))], len(want), want[:min(8, len(want))])
		}
	}
	return rig.counts.Writes.Load() - before - 1 // the plug was one
}

// batchCap closes the broker, which waits for the writer, and reports the
// capacity of the connection's batch buffer.
func (rig *writeLoopRig) batchCap(t *testing.T) int {
	t.Helper()
	if err := rig.b.Close(); err != nil {
		t.Fatal(err)
	}
	return cap(rig.bc.batch)
}

// payload returns n bytes that say which payload they are.
func payload(tag byte, n int) []byte {
	return bytes.Repeat([]byte{tag}, n)
}

// TestWriteLoopLargeFramesAreNotCopied: two 1 MiB frames queued together
// arrive intact and in order in a write each, and the batch buffer is not
// grown to hold them — it is not even allocated.
func TestWriteLoopLargeFramesAreNotCopied(t *testing.T) {
	rig := newWriteLoopRig(t)
	if writes := rig.send(t, payload('a', 1<<20), payload('b', 1<<20)); writes != 2 {
		t.Errorf("two 1 MiB frames took %d writes, want 2", writes)
	}
	if got := rig.batchCap(t); got != 0 {
		t.Errorf("batch buffer has %d bytes after two frames that do not fit it, want none", got)
	}
}

// TestWriteLoopKeepsOrderAroundLargeFrame: small frames queued around a
// large one are gathered up to it, the large one goes out as it is, and the
// wire order is the queue order. The buffer is still its fixed size.
func TestWriteLoopKeepsOrderAroundLargeFrame(t *testing.T) {
	rig := newWriteLoopRig(t)
	writes := rig.send(t, payload('a', 100), payload('b', 200), payload('L', 1<<20), payload('c', 300))
	if writes != 3 {
		t.Errorf("small, small, large, small took %d writes, want 3 (the two small ones together, the large one, the last)", writes)
	}
	if got := rig.batchCap(t); got != frameChunk {
		t.Errorf("batch buffer is %d bytes, want frameChunk (%d)", got, frameChunk)
	}
}

// TestWriteLoopGathersQueuedFrames: frames that fit leave in one write, and a
// run longer than the buffer leaves in buffer-sized writes without growing
// it.
func TestWriteLoopGathersQueuedFrames(t *testing.T) {
	rig := newWriteLoopRig(t)
	if writes := rig.send(t, payload('a', 10), payload('b', 20), payload('c', 30)); writes != 1 {
		t.Errorf("three small frames took %d writes, want 1", writes)
	}
	var run [][]byte
	for i := 0; i < 100; i++ { // 100 frames of 2 KiB: three buffers' worth
		run = append(run, payload(byte(i), 2<<10))
	}
	if writes := rig.send(t, run...); writes < 4 || writes > 8 {
		t.Errorf("200 KiB of small frames took %d writes, want a handful (about one per frameChunk)", writes)
	}
	if got := rig.batchCap(t); got != frameChunk {
		t.Errorf("batch buffer is %d bytes, want frameChunk (%d)", got, frameChunk)
	}
}

// TestWriteLoopHoldsBoundedBytesForSlowSubscriber states the backpressure
// bound without instruments: with a subscriber's socket stalled and its queue
// full, what the broker holds for it is the queue — depth times the largest
// frame — plus the frame the writer has in hand and one frameChunk of
// batch, whatever the publisher goes on to send. Measured as live heap.
func TestWriteLoopHoldsBoundedBytesForSlowSubscriber(t *testing.T) {
	const depth = 16
	b, _, g := countedBroker(t, WithQueueDepth(depth))
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Bulk", []pbio.FieldSpec{
		// A frame just under 48 KiB, so that what the allocator hands out
		// for one is what the bound counts for one.
		{Name: "payload", Kind: pbio.Uint, CType: machine.CULong, Count: 6<<10 - 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Encode(pbio.Record{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("bulk"); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "bulk", 1)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	published := int64(0)
	publish := func() {
		t.Helper()
		if err := pub.Publish("bulk", f, rec); err != nil {
			t.Fatal(err)
		}
		published++
	}
	// liveHeap is read with the broker idle: everything published is routed.
	liveHeap := func() int64 {
		t.Helper()
		testutil.WaitFor(t, 10*time.Second, "the broker to finish routing", func() bool { return b.Stats().Published == published })
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	// Warm every buffer on the path (the publisher's scratch, the broker's
	// frame buffer, the subscriber's, the batch buffer) before the baseline.
	for i := 0; i < 4; i++ {
		publish()
	}
	for i := 0; i < 4; i++ {
		if _, err := sub.Next(); err != nil {
			t.Fatal(err)
		}
	}
	before := liveHeap()

	// Stall the subscriber's socket and publish until the queue has been full
	// for a while: three times its depth dropped.
	g.writes.shut()
	defer g.writes.open()
	for b.Stats().Dropped < 3*depth {
		publish()
	}
	held := liveHeap() - before
	g.writes.open()

	frame := int64(pbio.FrameHeaderLen + 2 + len("bulk") + 8 + len(rec))
	bound := depth*frame + frame + frameChunk
	const slack = 64 << 10 // flight events, histogram buckets, the odd timer
	t.Logf("held %d KiB for a stalled subscriber; bound %d KiB (queue %d x %d B + one frame + frameChunk)",
		held>>10, bound>>10, depth, frame)
	if held > bound+slack {
		t.Errorf("broker holds %d bytes for one stalled subscriber, want at most %d", held, bound+slack)
	}
	if held < depth*frame/2 {
		t.Errorf("broker holds %d bytes with a full queue of %d x %d: the measurement is not seeing the queue", held, depth, frame)
	}
}
