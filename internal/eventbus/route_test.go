package eventbus

import (
	"context"
	"net"
	"testing"

	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// routeRig is a broker whose connections are driven by hand: the test calls
// dispatch on its own goroutine and drains the queues itself, so what it
// measures is routing alone, with no socket, reader or writer goroutine.
type routeRig struct {
	b   *Broker
	pub *brokerConn
	f   *pbio.Format
	// publish is one framePublish payload on countedStream.
	publish []byte
}

func newRouteRig(t *testing.T, opts ...BrokerOption) *routeRig {
	t.Helper()
	b, err := Listen("127.0.0.1:0", append([]BrokerOption{WithSlog(quietLogger), WithObserver(obsv.New())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	rig := &routeRig{b: b, f: flightFormat(t, machine.X86_64)}
	rig.pub = rig.conn(t)
	rig.dispatch(t, rig.pub, frameFormat, pbio.MarshalMeta(rig.f))
	p := putStr(nil, countedStream)
	p = append(p, rig.f.ID[:]...)
	rig.publish = append(p, encodeFlight(t, rig.f, 7)...)
	return rig
}

// conn is a broker connection the broker never reads or writes: its peer
// end is a pipe nobody uses.
func (rig *routeRig) conn(t *testing.T) *brokerConn {
	t.Helper()
	near, far := net.Pipe()
	t.Cleanup(func() { _ = near.Close(); _ = far.Close() })
	return rig.b.newConn(near)
}

func (rig *routeRig) dispatch(t *testing.T, bc *brokerConn, typ byte, payload []byte) {
	t.Helper()
	frame, err := newFrame(typ, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.b.dispatch(bc, frame, nil); err != nil {
		t.Fatalf("dispatch of frame type %d: %v", typ, err)
	}
}

// subscribers subscribes n fresh connections with the given scope and
// routes one record, so every later publish finds the format known and sent.
func (rig *routeRig) subscribers(t *testing.T, n int, scope ...string) []*brokerConn {
	t.Helper()
	subs := make([]*brokerConn, n)
	for i := range subs {
		subs[i] = rig.conn(t)
		rig.dispatch(t, subs[i], frameSubscribe, subscribePayload(countedStream, scope))
	}
	rig.dispatch(t, rig.pub, framePublish, rig.publish)
	drainQueues(subs)
	return subs
}

// drainQueues empties every connection's outbound queue as its writer
// would, giving back each frame's chunk reference, and counts the frames.
func drainQueues(conns []*brokerConn) (frames int) {
	for _, bc := range conns {
		for len(bc.out) > 0 {
			(<-bc.out).chunk.Release()
			frames++
		}
	}
	return frames
}

// chunkRuns is how many records an allocation pin reads: enough frames to
// fill a few read chunks, whose allocations the count then includes.
const chunkRuns = 2000

// publishAllocs is the allocations one routed publish of payload costs,
// queues drained between publishes. The publish frames come through the
// broker's read path, its recycling chunked reader over a connection that
// sends them over and over.
func (rig *routeRig) publishAllocs(t *testing.T, subs []*brokerConn, payload []byte) float64 {
	t.Helper()
	publish, err := newFrame(framePublish, payload)
	if err != nil {
		t.Fatal(err)
	}
	rd := pbio.NewFrameReader(&feedConn{loop: publish}, maxFrame, rig.b.spares)
	defer rd.Release()
	return testing.AllocsPerRun(chunkRuns, func() {
		frame, c, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := rig.b.dispatch(rig.pub, frame, c); err != nil {
			t.Fatal(err)
		}
		if got := drainQueues(subs); got != len(subs) {
			t.Fatalf("%d frames queued to %d subscribers", got, len(subs))
		}
	})
}

// TestRoutePlainPublishAllocsFlat pins the broker's cost of a plain publish
// at nothing, whatever the fan-out and for a small frame and a 10,220-byte
// one alike: every plain subscriber is queued the publisher's own frame, a
// slice of a read chunk that goes back to the spare list once the queues
// are drained. Before route snapshots it was 2+N (the subscriber list, a
// frame copy per subscriber, and the stream name), then one frame image,
// then a share of a read chunk, and for a frame over 4 KiB a copy.
func TestRoutePlainPublishAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	for _, size := range []int{0, 10220} {
		var first float64
		for _, n := range []int{1, 2, 4, 8} {
			rig := newRouteRig(t)
			subs := rig.subscribers(t, n)
			payload := rig.publish
			if size > 0 { // the first publish takes the format's metadata along
				payload = rig.bytesPublish(t, size)
				rig.dispatch(t, rig.pub, framePublish, payload)
				drainQueues(subs)
			}
			allocs := rig.publishAllocs(t, subs, payload)
			t.Logf("%d plain subscribers, %d-byte frames: %.2f allocations per publish", n, pbio.FrameHeaderLen+len(payload), allocs)
			if allocs > 0.1 {
				t.Errorf("%d plain subscribers: %.2f allocations per publish, want at most 0.1", n, allocs)
			}
			if n == 1 {
				first = allocs
			} else if allocs != first {
				t.Errorf("%d plain subscribers: %.2f allocations per publish, %.2f for one: not flat", n, allocs, first)
			}
		}
	}
}

// bytesPublish announces a format of one byte array and returns a publish
// payload on countedStream whose frame is size bytes, header included.
func (rig *routeRig) bytesPublish(t *testing.T, size int) []byte {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	p := append(putStr(nil, countedStream), make([]byte, 8)...)
	n := size - pbio.FrameHeaderLen - len(p)
	f, err := ctx.RegisterSpec("Bytes", []pbio.FieldSpec{{Name: "b", Kind: pbio.Uint, CType: machine.CUChar, Count: n}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Encode(pbio.Record{})
	if err != nil || len(rec) != n {
		t.Fatalf("encoded %d bytes, want %d: %v", len(rec), n, err)
	}
	rig.dispatch(t, rig.pub, frameFormat, pbio.MarshalMeta(f))
	copy(p[len(p)-8:], f.ID[:])
	return append(p, rec...)
}

// TestRouteScopedClassAllocsFlat pins a scoped class at nothing per publish
// however many subscribers share the scope: the record is projected once,
// straight into the frame every member is sent, carved from the publishing
// connection's image chunk, which goes back to the spare list once the
// queues are drained. It was one allocation, the image, before images were
// carved.
func TestRouteScopedClassAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	for _, n := range []int{1, 2, 4, 8} {
		rig := newRouteRig(t)
		allocs := rig.publishAllocs(t, rig.subscribers(t, n, "cntrID", "eta"), rig.publish)
		t.Logf("%d subscribers of one scope: %.2f allocations per publish", n, allocs)
		if allocs > 0.1 {
			t.Errorf("%d subscribers of one scope: %.2f allocations per publish, want at most 0.1", n, allocs)
		}
	}
}

// TestRouteScopedImageMatchesConvert: the frame a scoped class is sent is
// the slice's id and the plan's conversion of the record, under the same
// header a separately built frame would have.
func TestRouteScopedImageMatchesConvert(t *testing.T) {
	rig := newRouteRig(t)
	sub := rig.conn(t)
	rig.dispatch(t, sub, frameSubscribe, subscribePayload(countedStream, []string{"fltNum", "eta"}))
	drainQueues([]*brokerConn{sub}) // the answer
	rig.dispatch(t, rig.pub, framePublish, rig.publish)
	var frames []outFrame
	for len(sub.out) > 0 {
		frames = append(frames, <-sub.out)
	}
	if len(frames) != 2 || frames[0].wire[0] != frameFormat || frames[1].wire[0] != frameEvent {
		t.Fatalf("queued %d frames, want the slice's format then the event", len(frames))
	}
	slice, err := pbio.UnmarshalMeta(frames[0].wire[pbio.FrameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dcg.Compile(rig.f, slice)
	if err != nil {
		t.Fatal(err)
	}
	record, err := plan.Convert(encodeFlight(t, rig.f, 7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := newFrame(frameEvent, append(append(putStr(nil, countedStream), slice.ID[:]...), record...))
	if err != nil {
		t.Fatal(err)
	}
	if got := frames[1].wire; string(got) != string(want) {
		t.Errorf("scoped frame:\n got %x\nwant %x", got, want)
	}
}

// TestRoutePlainImageIsPublishFrame: an untraced publish queues the
// publisher's own frame, retyped, to every plain subscriber, and its bytes
// are what delivery.image builds for the plain class. A traced publish gives
// every one of them one traced image, the same bytes in the same memory.
func TestRoutePlainImageIsPublishFrame(t *testing.T) {
	rig := newRouteRig(t)
	plain := rig.subscribers(t, 3)

	rig.b.mu.Lock()
	st := rig.b.streams[countedStream]
	rig.b.mu.Unlock()
	d := delivery{st: st, rf: st.route.Load().formats[0], record: encodeFlight(t, rig.f, 7), images: &images{spares: rig.b.spares}}
	want, _, err := d.image(nil)
	if err != nil {
		t.Fatal(err)
	}
	queued := func(bc *brokerConn) []byte {
		t.Helper()
		if len(bc.out) != 1 {
			t.Fatalf("%d frames queued, want 1", len(bc.out))
		}
		return (<-bc.out).wire
	}

	publish, err := newFrame(framePublish, rig.publish)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.b.dispatch(rig.pub, publish, nil); err != nil {
		t.Fatal(err)
	}
	for i, bc := range plain {
		got := queued(bc)
		if string(got) != string(want) {
			t.Errorf("subscriber %d, untraced publish:\n got %x\nwant %x", i, got, want)
		}
		if &got[0] != &publish[0] {
			t.Errorf("subscriber %d, untraced publish: queued a copy, not the publisher's frame", i)
		}
	}

	tracedPublish := putTraceCtx(putStr(nil, countedStream), trace.TraceID{1}, trace.SpanID{2})
	tracedPublish = append(append(tracedPublish, rig.f.ID[:]...), d.record...)
	rig.dispatch(t, rig.pub, framePublishTrace, tracedPublish)
	var image []byte
	for i, bc := range plain {
		got := queued(bc)
		if got[0] != frameEventTrace || len(got) != len(want)+traceCtxLen {
			t.Errorf("subscriber %d, traced publish: frame type %d of %d bytes, want %d of %d",
				i, got[0], len(got), frameEventTrace, len(want)+traceCtxLen)
		}
		if image == nil {
			image = got
		} else if &got[0] != &image[0] {
			t.Errorf("subscriber %d, traced publish: an image of its own, not the class's", i)
		}
	}
}

// feedConn is a connection whose peer has sent head and then sends loop over
// and over; what is written to it is discarded.
type feedConn struct {
	net.Conn
	head, loop []byte
	at         int
}

func (c *feedConn) Read(p []byte) (int, error) {
	if len(c.head) > 0 {
		n := copy(p, c.head)
		c.head = c.head[n:]
		return n, nil
	}
	n := 0
	for n < len(p) {
		m := copy(p[n:], c.loop[c.at:])
		n += m
		c.at = (c.at + m) % len(c.loop)
	}
	return n, nil
}

func (c *feedConn) Write(p []byte) (int, error) { return len(p), nil }

// TestRouteSubscriberNextAllocs pins Subscriber.Next on a plain record at
// its share of a read chunk: Data is the record's slice of its frame, and the
// stream name of the record before is reused. It was two, a copy of Data and
// the name allocated again for every record.
func TestRouteSubscriberNextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	f := flightFormat(t, machine.X86_64)
	format, err := newFrame(frameFormat, pbio.MarshalMeta(f))
	if err != nil {
		t.Fatal(err)
	}
	event, err := newFrame(frameEvent, append(append(putStr(nil, countedStream), f.ID[:]...), encodeFlight(t, f, 7)...))
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	defer far.Close()
	conn := &feedConn{Conn: near, head: format, loop: event}
	sub, err := DialSubscriber("feed", subCtx(t), WithDialFunc(func(_ context.Context, network, addr string) (net.Conn, error) {
		return conn, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(chunkRuns, func() {
		ev, err := sub.Next()
		if err != nil || ev.Stream != countedStream {
			t.Fatalf("Next = %q, %v", ev.Stream, err)
		}
	})
	if allocs > 0.1 {
		t.Errorf("Subscriber.Next: %.2f allocations per plain record, want at most 0.1", allocs)
	}
}

// TestScopeChurnHoldsOneScopedFormat: a connection that re-subscribes with
// scope after scope leaves the broker holding only the one it subscribes
// with now. Scoped formats used to be kept for good, one per scope ever
// named, so a peer could grow the broker without bound.
func TestScopeChurnHoldsOneScopedFormat(t *testing.T) {
	const scopes = 5000
	rig := newRouteRig(t, WithPlanCache(dcg.NewCache(dcg.WithMaxEntries(16))))
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	fields := []string{"a", "b", "c", "d", "e", "f", "g"} // 7! = 5040 orders
	specs := make([]pbio.FieldSpec, len(fields))
	for i, name := range fields {
		specs[i] = pbio.FieldSpec{Name: name, Kind: pbio.Int, CType: machine.CInt}
	}
	wide, err := ctx.RegisterSpec("Wide", specs)
	if err != nil {
		t.Fatal(err)
	}
	rig.dispatch(t, rig.pub, frameFormat, pbio.MarshalMeta(wide))
	data, err := wide.Encode(pbio.Record{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	publish := append(append(putStr(nil, "wide"), wide.ID[:]...), data...)
	rig.dispatch(t, rig.pub, framePublish, publish) // the stream knows the format

	sub := rig.conn(t)
	for i := 0; i < scopes; i++ {
		rig.dispatch(t, sub, frameSubscribe, subscribePayload("wide", permutation(fields, i)))
		drainQueues([]*brokerConn{sub})
	}
	rig.dispatch(t, rig.pub, framePublish, publish)
	if got := drainQueues([]*brokerConn{sub}); got != 1 {
		t.Fatalf("%d frames after the last scope, want the one event", got)
	}
	rig.b.mu.Lock()
	r := rig.b.streams["wide"].route.Load()
	rig.b.mu.Unlock()
	held := 0
	for _, c := range r.classes {
		held += len(c.slices)
	}
	if held != 1 || len(r.classes) != 1 {
		t.Errorf("after %d scopes the stream holds %d scoped formats in %d classes, want 1 in 1", scopes, held, len(r.classes))
	}
	if n := rig.b.PlanCacheLen(); n > 16 {
		t.Errorf("plan cache holds %d plans, want at most its bound of 16", n)
	}
}

// permutation returns the i-th ordering of fields (i < len(fields)!).
func permutation(fields []string, i int) []string {
	rest := append([]string(nil), fields...)
	out := make([]string, 0, len(fields))
	for len(rest) > 0 {
		k := i % len(rest)
		i /= len(rest)
		out = append(out, rest[k])
		rest = append(rest[:k], rest[k+1:]...)
	}
	return out
}

// TestRouteSwapsRacePublishes runs route rebuilds against publishes: while
// a publisher sends records in two formats, one of them new halfway through,
// another connection subscribes, re-scopes and unsubscribes over and over.
// A plain and a scoped subscriber of the stream get every record, in order.
func TestRouteSwapsRacePublishes(t *testing.T) {
	const records = 400
	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithObserver(obsv.New()), WithQueueDepth(2*records))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	formats := []*pbio.Format{flightFormat(t, machine.Sparc), flightFormat(t, machine.X86_64)}

	var steady []*Subscriber
	for _, scope := range [][]string{nil, {"fltNum", "eta"}} {
		sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		if err := sub.SubscribeFields("flights", scope...); err != nil {
			t.Fatal(err)
		}
		steady = append(steady, sub)
	}
	churner, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer churner.Close()
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// The churner reads only in SubscribeFields, which keeps the events it
	// meets for a Next that never comes; its queue is deep enough for every
	// record, so a format frame never stalls on it.
	stop, churned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(churned)
		scopes := [][]string{nil, {"cntrID"}, {"eta", "fltNum"}, {"fltNum"}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%5 == 4 {
				err = churner.Unsubscribe("flights")
			} else {
				err = churner.SubscribeFields("flights", scopes[i%len(scopes)]...)
			}
			if err != nil {
				t.Errorf("churn %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < records; i++ {
		f := formats[0]
		if i >= records/2 {
			f = formats[i%2]
		}
		if err := pub.Publish("flights", f, encodeFlight(t, f, i)); err != nil {
			t.Fatal(err)
		}
	}
	for n, sub := range steady {
		for i := 0; i < records; i++ {
			ev, err := sub.Next()
			if err != nil {
				t.Fatalf("steady subscriber %d, record %d: %v", n, i, err)
			}
			rec, err := ev.Decode()
			if err != nil {
				t.Fatalf("steady subscriber %d, record %d: %v", n, i, err)
			}
			if rec["fltNum"] != int64(i) {
				t.Fatalf("steady subscriber %d: record %d has fltNum %v", n, i, rec["fltNum"])
			}
		}
	}
	close(stop)
	<-churned
}
