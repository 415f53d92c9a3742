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

// stallRig is a broker whose writes the test can stall, with a subscriber
// of one stream and a publisher, for measuring what the broker holds for a
// subscriber that does not read.
type stallRig struct {
	b         *Broker
	g         *gates
	pub       *Publisher
	sub       *Subscriber
	published int64
}

func newStallRig(t *testing.T, depth int, stream string) *stallRig {
	t.Helper()
	b, _, g := countedBroker(t, WithQueueDepth(depth))
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	if err := sub.Subscribe(stream); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, stream, 1)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	return &stallRig{b: b, g: g, pub: pub, sub: sub}
}

func (rig *stallRig) publish(t *testing.T, stream string, f *pbio.Format, rec []byte) {
	t.Helper()
	if err := rig.pub.Publish(stream, f, rec); err != nil {
		t.Fatal(err)
	}
	rig.published++
}

// next has the subscriber receive n records.
func (rig *stallRig) next(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := rig.sub.Next(); err != nil {
			t.Fatal(err)
		}
	}
}

// liveHeap is read with the broker idle: everything published is routed.
func (rig *stallRig) liveHeap(t *testing.T) int64 {
	t.Helper()
	testutil.WaitFor(t, 10*time.Second, "the broker to finish routing", func() bool { return rig.b.Stats().Published == rig.published })
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// bulkRecord registers a format of n native unsigned longs and returns it
// with an encoded record.
func bulkRecord(t *testing.T, n int) (*pbio.Format, []byte) {
	t.Helper()
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Bulk", []pbio.FieldSpec{
		{Name: "payload", Kind: pbio.Uint, CType: machine.CULong, Count: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Encode(pbio.Record{})
	if err != nil {
		t.Fatal(err)
	}
	return f, rec
}

// TestWriteLoopHoldsBoundedBytesForSlowSubscriber states the backpressure
// bound without instruments: with a subscriber's socket stalled and its queue
// full, what the broker holds for it is the queue — depth times the largest
// frame — plus the frame the writer has in hand and one frameChunk of
// batch, whatever the publisher goes on to send. Measured as live heap.
// Frames this large are copied out of the broker's read chunk, so each holds
// only itself.
func TestWriteLoopHoldsBoundedBytesForSlowSubscriber(t *testing.T) {
	const depth = 16
	rig := newStallRig(t, depth, "bulk")
	// A frame just under 48 KiB, so that what the allocator hands out for one
	// is what the bound counts for one.
	f, rec := bulkRecord(t, 6<<10-8)

	// Warm every buffer on the path (the publisher's scratch, the broker's
	// read chunk, the subscriber's, the batch buffer) before the baseline.
	for i := 0; i < 4; i++ {
		rig.publish(t, "bulk", f, rec)
	}
	rig.next(t, 4)
	before := rig.liveHeap(t)

	// Stall the subscriber's socket and publish until the queue has been full
	// for a while: three times its depth dropped.
	rig.g.writes.shut()
	defer rig.g.writes.open()
	for rig.b.Stats().Dropped < 3*depth {
		rig.publish(t, "bulk", f, rec)
	}
	held := rig.liveHeap(t) - before
	rig.g.writes.open()

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

// TestWriteLoopHoldsBoundedChunksForSparseSlowSubscriber is the same bound
// where it is worst for read chunks: a small frame is a slice of the chunk
// the broker read it in and keeps that chunk alive while it is queued, and
// the stalled subscriber's stream is sparse — a chunk's worth of another
// stream's frames comes between two of its records — so each queued frame
// holds a chunk of its own. What the broker holds is then the queue and the
// frame in the writer's hand at a chunk each, plus one frameChunk of batch.
func TestWriteLoopHoldsBoundedChunksForSparseSlowSubscriber(t *testing.T) {
	const depth = 16
	rig := newStallRig(t, depth, countedStream)
	small := flightFormat(t, machine.X86_64)
	rec := encodeFlight(t, small, 1)
	// Frames of the other stream just under the largest a chunk is sliced
	// for, enough of them to fill a chunk between two small frames.
	bulk, filler := bulkRecord(t, 500)
	between := frameChunk/(pbio.FrameHeaderLen+2+len("other")+8+len(filler)) + 1
	round := func() {
		for i := 0; i < between; i++ {
			rig.publish(t, "other", bulk, filler)
		}
		rig.publish(t, countedStream, small, rec)
	}

	for i := 0; i < 4; i++ {
		round()
	}
	rig.next(t, 4)
	before := rig.liveHeap(t)

	rig.g.writes.shut()
	defer rig.g.writes.open()
	for rig.b.Stats().Dropped < 3*depth {
		round()
	}
	held := rig.liveHeap(t) - before
	rig.g.writes.open()

	bound := int64((depth+1)*frameChunk + frameChunk)
	const slack = 64 << 10
	t.Logf("held %d KiB for a stalled subscriber of a sparse stream; bound %d KiB ((queue %d + one frame) x frameChunk + frameChunk)",
		held>>10, bound>>10, depth)
	if held > bound+slack {
		t.Errorf("broker holds %d bytes for one stalled subscriber, want at most %d", held, bound+slack)
	}
	if held < depth*frameChunk/2 {
		t.Errorf("broker holds %d bytes with a full queue of %d frames from %d chunks: the measurement is not seeing the chunks", held, depth, depth)
	}
}

// TestStalledSubscriberDropFreesHeap: a subscriber the broker drops for
// stalling gives back what it held. Its queue is full of frames from a
// sparse stream, each keeping a read chunk of its own out of the spare list,
// and its socket stays stalled until the broker has closed it, so none of
// them is ever written or released. Once the connection is gone the live
// heap is back at its level before the stall, give or take the spare list,
// which may have filled meanwhile.
func TestStalledSubscriberDropFreesHeap(t *testing.T) {
	const depth = 16
	rig := newStallRig(t, depth, countedStream)
	small := flightFormat(t, machine.X86_64)
	rec := encodeFlight(t, small, 1)
	bulk, filler := bulkRecord(t, 500)
	between := frameChunk/(pbio.FrameHeaderLen+2+len("other")+8+len(filler)) + 1
	round := func() {
		for i := 0; i < between; i++ {
			rig.publish(t, "other", bulk, filler)
		}
		rig.publish(t, countedStream, small, rec)
	}
	for i := 0; i < 4; i++ {
		round()
	}
	rig.next(t, 4)
	var bc *brokerConn
	rig.b.mu.Lock()
	for c := range rig.b.conns {
		if c.conn.RemoteAddr().String() == rig.sub.conn.LocalAddr().String() {
			bc = c
		}
	}
	rig.b.mu.Unlock()
	before := rig.liveHeap(t)

	rig.g.writes.shut()
	defer rig.g.writes.open()
	for rig.b.Stats().Dropped < 3*depth {
		round()
	}
	stalled := rig.liveHeap(t) - before
	// A format new to the stream cannot be queued: the broker waits
	// mustSendStall and drops the subscriber, then closes its connection.
	rig.publish(t, countedStream, flightFormat(t, machine.Sparc64), rec)
	gone := make(chan error, 1)
	go func() {
		_, err := rig.sub.Next()
		gone <- err
	}()
	select {
	case err := <-gone:
		if err == nil {
			t.Fatal("the stalled subscriber received a record")
		}
	case <-time.After(3 * mustSendStall):
		t.Fatal("the broker did not drop the stalled subscriber")
	}
	if n := rig.b.Stats().SlowSubscriberStalls; n != 1 {
		t.Fatalf("%d slow-subscriber stalls, want 1", n)
	}
	rig.g.writes.open() // the writer's write fails on the closed socket
	<-bc.writerDone
	held := rig.liveHeap(t) - before

	bound := int64(spareChunks * frameChunk)
	const slack = 64 << 10
	t.Logf("held %d KiB while stalled, %d KiB once dropped; bound %d KiB (the spare list)", stalled>>10, held>>10, bound>>10)
	if stalled < depth*frameChunk/2 {
		t.Errorf("broker holds %d bytes with a full queue of %d frames from %d chunks: the measurement is not seeing the chunks", stalled, depth, depth)
	}
	if held > bound+slack {
		t.Errorf("broker holds %d bytes more than before a subscriber it dropped stalled, want at most %d", held, bound+slack)
	}
}
