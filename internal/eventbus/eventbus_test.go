package eventbus

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// quietLogger suppresses expected disconnect noise in tests.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

func newBroker(t *testing.T) *Broker {
	t.Helper()
	b, err := Listen("127.0.0.1:0", withSlog(quietLogger))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

func flightFormat(t testing.TB, arch *machine.Arch) *pbio.Format {
	t.Helper()
	ctx, err := pbio.NewContext(arch)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("ASDOffEvent", []pbio.FieldSpec{
		{Name: "cntrID", Kind: pbio.String},
		{Name: "fltNum", Kind: pbio.Int, CType: machine.CInt},
		{Name: "eta", Kind: pbio.Uint, CType: machine.CULong, Dynamic: true, CountField: "eta_count"},
		{Name: "eta_count", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func subCtx(t testing.TB) *pbio.Context {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestPublishSubscribe(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc) // big-endian capture point

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

	want := pbio.Record{"cntrID": "ZTL", "fltNum": 1842, "eta": []uint64{10, 20}}
	for i := 0; i < 3; i++ {
		if err := pub.PublishRecord("flights", f, want); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		ev, err := sub.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Stream != "flights" {
			t.Errorf("stream = %q", ev.Stream)
		}
		rec, err := ev.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if rec["cntrID"] != "ZTL" || rec["fltNum"] != int64(1842) {
			t.Errorf("rec = %v", rec)
		}
		if !reflect.DeepEqual(rec["eta"], []uint64{10, 20}) {
			t.Errorf("eta = %v", rec["eta"])
		}
	}
}

// TestSubscribeIsLive: a record published on another connection the moment
// Subscribe returns is delivered, to a plain subscriber and a scoped one
// alike, with nothing waited for in between.
func TestSubscribeIsLive(t *testing.T) {
	const rounds = 20
	b := newBroker(t)
	f := flightFormat(t, machine.X86_64)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for round := 0; round < rounds; round++ {
		stream := fmt.Sprintf("live%d", round)
		for _, scope := range [][]string{nil, {"fltNum"}} {
			sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.SubscribeFields(stream, scope...); err != nil {
				t.Fatal(err)
			}
			if err := pub.Publish(stream, f, encodeFlight(t, f, round)); err != nil {
				t.Fatal(err)
			}
			lost := time.AfterFunc(10*time.Second, func() { _ = sub.Close() })
			ev, err := sub.Next()
			lost.Stop()
			if err != nil {
				t.Fatalf("round %d, scope %v: the record published after Subscribe returned: %v", round, scope, err)
			}
			rec, err := ev.Decode()
			if err != nil {
				t.Fatal(err)
			}
			wantFlt(t, rec, round)
			_ = sub.Close()
		}
	}
}

// waitForStream waits until the broker knows the stream and it has exactly
// wantSubs subscribers.
func waitForStream(t *testing.T, b *Broker, name string, wantSubs int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		b.mu.Lock()
		st, ok := b.streams[name]
		n := 0
		if ok {
			n = len(st.route.Load().members())
		}
		b.mu.Unlock()
		if ok && n == wantSubs {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stream %q never reached %d subscribers", name, wantSubs)
}

func TestLateSubscriberGetsFormats(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// Publish before anyone subscribes: record is lost (no retention), but
	// the stream's format must reach late subscribers.
	if err := pub.PublishRecord("flights", f, pbio.Record{"fltNum": 1}); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "flights", 0)

	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishRecord("flights", f, pbio.Record{"fltNum": 2}); err != nil {
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
	if rec["fltNum"] != int64(2) {
		t.Errorf("fltNum = %v", rec["fltNum"])
	}
	// The format arrived at subscription time, so the adopted catalog has it.
	if _, ok := sub.Context().LookupID(f.ID); !ok {
		t.Error("format not adopted at subscription time")
	}
}

func TestMultipleSubscribersAndStreams(t *testing.T) {
	b := newBroker(t)
	flights := flightFormat(t, machine.X86)

	wctx, _ := pbio.NewContext(machine.X86_64)
	weather, err := wctx.RegisterSpec("Weather", []pbio.FieldSpec{
		{Name: "station", Kind: pbio.String},
		{Name: "tempC", Kind: pbio.Float, CType: machine.CDouble},
	})
	if err != nil {
		t.Fatal(err)
	}

	subFlights, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer subFlights.Close()
	subBoth, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer subBoth.Close()

	if err := subFlights.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	if err := subBoth.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	if err := subBoth.Subscribe("weather"); err != nil {
		t.Fatal(err)
	}

	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.PublishRecord("flights", flights, pbio.Record{"fltNum": 7}); err != nil {
		t.Fatal(err)
	}
	if err := pub.PublishRecord("weather", weather, pbio.Record{"station": "ATL", "tempC": 31.5}); err != nil {
		t.Fatal(err)
	}

	// subFlights sees exactly the flights record.
	ev, err := subFlights.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stream != "flights" || ev.Format.Name != "ASDOffEvent" {
		t.Errorf("ev = %v %v", ev.Stream, ev.Format.Name)
	}

	// subBoth sees both, in publish order.
	ev1, err := subBoth.Next()
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := subBoth.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Stream != "flights" || ev2.Stream != "weather" {
		t.Errorf("order = %q, %q", ev1.Stream, ev2.Stream)
	}
	rec, err := ev2.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if rec["tempC"] != 31.5 {
		t.Errorf("tempC = %v", rec["tempC"])
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.X86_64)
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
	if err := pub.PublishRecord("flights", f, pbio.Record{"fltNum": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe("flights"); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "flights", 0)
	if err := pub.PublishRecord("flights", f, pbio.Record{"fltNum": 2}); err != nil {
		t.Fatal(err)
	}
	// Nothing should arrive; closing after a short grace unblocks Next.
	go func() {
		time.Sleep(50 * time.Millisecond)
		sub.Close()
	}()
	if ev, err := sub.Next(); err == nil {
		t.Errorf("received %v after unsubscribe", ev.Stream)
	}
}

func TestStreamsListing(t *testing.T) {
	b := newBroker(t)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Announce("weather"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Announce("flights"); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "flights", 0)
	waitForStream(t, b, "weather", 0)
	if got := b.Streams(); !reflect.DeepEqual(got, []string{"flights", "weather"}) {
		t.Errorf("broker streams = %v", got)
	}

	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	names, err := sub.Streams()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"flights", "weather"}) {
		t.Errorf("streams = %v", names)
	}
}

func TestPublishUnannouncedFormatRejected(t *testing.T) {
	b := newBroker(t)
	conn, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Publish referencing a format never sent on this connection.
	payload := putStr(nil, "x")
	payload = append(payload, make([]byte, 8)...)
	if err := writeFrame(conn, framePublish, payload); err != nil {
		t.Fatal(err)
	}
	typ, msg, _, err := readFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameError {
		t.Fatalf("frame type = %d, want error", typ)
	}
	if len(msg) == 0 {
		t.Error("empty error message")
	}
}

func TestBrokerRejectsMalformedFrames(t *testing.T) {
	b := newBroker(t)
	cases := [][]byte{
		{99, 0, 0, 0, 0},                // unknown type
		{frameSubscribe, 0, 0, 0, 1, 9}, // truncated string
		{framePublish, 0, 0, 0, 3, 0, 1, 'x'},
		{frameFormat, 0, 0, 0, 2, 'z', 'z'},
	}
	for i, raw := range cases {
		conn, err := net.Dial("tcp", b.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		typ, _, _, err := readFrame(conn, nil)
		if err == nil && typ != frameError {
			t.Errorf("case %d: type = %d, want error frame", i, typ)
		}
		conn.Close()
	}
}

func TestBrokerCloseUnblocksClients(t *testing.T) {
	testutil.NoGoroutineLeak(t) // nothing outlives the Close of broker, publisher, subscriber
	b := newBroker(t)
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("x"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sub.Next()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("Next returned nil after broker close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not unblock on broker close")
	}
	// Closing twice is fine.
	if err := b.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.X86_64)
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}

	const pubs, per = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, pubs)
	for i := 0; i < pubs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pub, err := DialPublisher(b.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer pub.Close()
			for j := 0; j < per; j++ {
				if err := pub.PublishRecord("flights", f,
					pbio.Record{"fltNum": id*1000 + j}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	got := make(map[int64]bool)
	for i := 0; i < pubs*per; i++ {
		ev, err := sub.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		rec, err := ev.Decode()
		if err != nil {
			t.Fatal(err)
		}
		got[rec["fltNum"].(int64)] = true
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != pubs*per {
		t.Errorf("received %d distinct records, want %d", len(got), pubs*per)
	}
}

func TestFrameHelpers(t *testing.T) {
	b := putStr(nil, "hello")
	s, rest, err := getStr(b)
	if err != nil || s != "hello" || len(rest) != 0 {
		t.Errorf("getStr = %q, %v, %v", s, rest, err)
	}
	if _, _, err := getStr([]byte{0}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short getStr err = %v", err)
	}
	if _, _, err := getStr([]byte{0, 5, 'a'}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated getStr err = %v", err)
	}
	// The encoder is pbio's, and so is its error.
	err = writeFrame(io.Discard, 1, make([]byte, maxFrame+1))
	if !errors.Is(err, pbio.ErrFrameTooBig) {
		t.Errorf("oversize writeFrame err = %v", err)
	}
}

func TestSubscriberErrorSurface(t *testing.T) {
	// A server that answers every frame with an error frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _, _, _ = readFrame(conn, nil)
		_ = writeFrame(conn, frameError, []byte("nope"))
	}()
	ctx, _ := pbio.NewContext(machine.X86_64)
	sub, err := DialSubscriber(ln.Addr().String(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// The answer to the subscribe is the error.
	if err := sub.Subscribe("x"); !errors.Is(err, ErrBroker) || !containsStr(err.Error(), "nope") {
		t.Errorf("err = %v", err)
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (haystack == needle ||
		len(haystack) > len(needle) && (haystack[:len(needle)] == needle ||
			containsStr(haystack[1:], needle)))
}

func TestEventDataIsOwned(t *testing.T) {
	// Event.Data must remain valid after the next Next call.
	const held = 2000
	// A queue that holds every record, so that none is dropped however far
	// the subscriber falls behind.
	b, err := Listen("127.0.0.1:0", withSlog(quietLogger), WithQueueDepth(held+8))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	f := flightFormat(t, machine.X86_64)
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("s"); err != nil {
		t.Fatal(err)
	}
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 2; i++ {
		if err := pub.PublishRecord("s", f, pbio.Record{"fltNum": i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	ev1, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(); err != nil {
		t.Fatal(err)
	}
	rec, err := ev1.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if rec["fltNum"] != int64(1) {
		t.Errorf("first event corrupted by second read: %v", rec["fltNum"])
	}

	// Data is a slice of the chunk its frame was read in. Held events span
	// several chunks, and each one's bytes survive every later read and an
	// append to the event before it.
	published := make(chan error, 1)
	go func() {
		for i := 0; i < held; i++ {
			if err := pub.PublishRecord("s", f, pbio.Record{"fltNum": i}); err != nil {
				published <- err
				return
			}
		}
		published <- nil
	}()
	events := make([]Event, held)
	for i := range events {
		if events[i], err = sub.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	grown := make([][]byte, held)
	for i, ev := range events {
		if cap(ev.Data) != len(ev.Data) {
			t.Fatalf("event %d: Data has %d bytes of room behind it", i, cap(ev.Data)-len(ev.Data))
		}
		grown[i] = append(ev.Data, 0xFF)
	}
	for i, ev := range events {
		rec, err := ev.Decode()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if rec["fltNum"] != int64(i) || grown[i][len(ev.Data)] != 0xFF {
			t.Fatalf("event %d: fltNum %v after later reads and appends", i, rec["fltNum"])
		}
	}
}

func ExamplePublisher() {
	// Compile-only example exercising the API shape.
	var pub *Publisher
	_ = pub
	fmt.Println("eventbus")
	// Output: eventbus
}
