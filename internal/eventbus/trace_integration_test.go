package eventbus

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// tracedTrio dials a broker, publisher, a full subscriber and a scoped
// subscriber, all recording into one tracer sampling every trace.
func tracedTrio(t *testing.T) (*trace.Tracer, *Broker, *Publisher, *Subscriber, *Subscriber) {
	t.Helper()
	tr := trace.NewTracer(1024)
	tr.SetSampling(1)

	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	full, err := DialSubscriber(b.Addr().String(), subCtx(t), WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = full.Close() })
	if err := full.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}

	scoped, err := DialSubscriber(b.Addr().String(), subCtx(t), WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = scoped.Close() })
	if err := scoped.SubscribeFields("flights", "fltNum"); err != nil {
		t.Fatal(err)
	}

	pub, err := DialPublisher(b.Addr().String(), WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })

	return tr, b, pub, full, scoped
}

// spansByName waits until the tracer has recorded at least one span per
// wanted name and returns the latest span for each.
func spansByName(t *testing.T, tr *trace.Tracer, names ...string) map[string]trace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := map[string]trace.Span{}
		for _, sp := range tr.Snapshot() {
			got[sp.Name] = sp
		}
		missing := ""
		for _, n := range names {
			if _, ok := got[n]; !ok {
				missing = n
				break
			}
		}
		if missing == "" {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("span %q never recorded; have %v", missing, keysOfSpans(got))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func keysOfSpans(m map[string]trace.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceEndToEnd is the acceptance test for the tracing tentpole: one
// published record produces one TraceID shared by the publisher's encode,
// the broker's route (and the scoped subscriber's conversion), and the
// subscriber's decode — all parent-linked into one tree, recoverable over
// the /debug/trace HTTP handler.
func TestTraceEndToEnd(t *testing.T) {
	tr, _, pub, full, scoped := tracedTrio(t)

	want := pbio.Record{"cntrID": "ZTL", "fltNum": 1842, "eta": []uint64{10, 20}}
	f := flightFormat(t, machine.Sparc)
	if err := pub.PublishRecord("flights", f, want); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []*Subscriber{full, scoped} {
		ev, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Trace.Sampled() {
			t.Fatal("event arrived without trace context")
		}
		if _, err := ev.Decode(); err != nil {
			t.Fatal(err)
		}
	}

	spans := spansByName(t, tr,
		"pub.publish", "pbio.encode", "broker.route", "dcg.compile", "dcg.convert", "pbio.decode")

	root := spans["pub.publish"]
	if root.Trace == (trace.TraceID{}) {
		t.Fatal("root span has zero trace id")
	}
	// Every stage shares the root's TraceID: the context crossed two
	// connections (publisher->broker, broker->subscriber) on the wire.
	for name, sp := range spans {
		if sp.Trace != root.Trace {
			t.Errorf("span %s trace = %s, want %s", name, sp.Trace, root.Trace)
		}
	}
	// Parent links form the expected tree.
	if got := spans["pbio.encode"].Parent; got != root.ID {
		t.Errorf("pbio.encode parent = %s, want pub.publish %s", got, root.ID)
	}
	route := spans["broker.route"]
	if route.Parent != root.ID {
		t.Errorf("broker.route parent = %s, want pub.publish %s", route.Parent, root.ID)
	}
	for _, name := range []string{"dcg.compile", "dcg.convert", "pbio.decode"} {
		if got := spans[name].Parent; got != route.ID {
			t.Errorf("%s parent = %s, want broker.route %s", name, got, route.ID)
		}
	}

	// The same tree must be recoverable over HTTP the way an operator sees
	// it: GET /debug/trace, one trace id, >= 4 parent-linked spans.
	srv := httptest.NewServer(trace.Handler(tr))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Spans []struct {
			Trace  string `json:"trace"`
			Span   string `json:"span"`
			Parent string `json:"parent"`
			Name   string `json:"name"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	inTrace := 0
	for _, sp := range body.Spans {
		if sp.Trace == root.Trace.String() {
			inTrace++
			ids[sp.Span] = true
		}
	}
	if inTrace < 4 {
		t.Fatalf("/debug/trace returned %d spans for trace %s, want >= 4", inTrace, root.Trace)
	}
	linked := 0
	for _, sp := range body.Spans {
		if sp.Trace == root.Trace.String() && ids[sp.Parent] {
			linked++
		}
	}
	if linked < 3 {
		t.Fatalf("only %d spans parent-link inside the trace, want >= 3", linked)
	}
}

// TestTraceUnsampledRecordsNothing proves the 1-in-N contract end to end: a
// tracer that is enabled but samples nothing never emits traced frames, and
// no spans are recorded anywhere.
func TestTraceUnsampledRecordsNothing(t *testing.T) {
	tr := trace.NewTracer(64)
	tr.SetSampling(1 << 30) // enabled, but effectively never samples

	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t), WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	pub, err := DialPublisher(b.Addr().String(), WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	f := flightFormat(t, machine.Sparc)
	rec := pbio.Record{"cntrID": "ZTL", "fltNum": 7, "eta": []uint64{1}}
	if err := pub.PublishRecord("flights", f, rec); err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Trace.Sampled() {
		t.Fatal("unsampled record arrived with trace context")
	}
	if _, err := ev.Decode(); err != nil {
		t.Fatal(err)
	}
	if n := tr.Recorded(); n != 0 {
		t.Fatalf("recorded %d spans for unsampled traffic", n)
	}
}

// TestTraceUntracedClientsAgainstTracingBroker: clients whose tracer is
// disabled publish and receive through a broker that traces, and the
// record arrives intact and without trace context.
func TestTraceUntracedClientsAgainstTracingBroker(t *testing.T) {
	tr := trace.NewTracer(64)
	tr.SetSampling(1)
	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The default client tracer is the process tracer, disabled in tests.
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

	f := flightFormat(t, machine.Sparc)
	rec := pbio.Record{"cntrID": "ZTL", "fltNum": 11, "eta": []uint64{4}}
	if err := pub.PublishRecord("flights", f, rec); err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got["fltNum"] != int64(11) {
		t.Fatalf("record corrupted: %v", got)
	}
	if ev.Trace.Sampled() {
		t.Fatal("an untraced record arrived with trace context")
	}
}

// TestBrokerErrorTypedOnSubscriber proves a broker rejection reaches the
// subscriber as a typed *BrokerError instead of a silent disconnect: a
// scope naming a field the stream's format does not have fails in
// SubscribeFields (the format is already known on the stream).
func TestBrokerErrorTypedOnSubscriber(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)

	// Publish once so the stream already carries the format.
	seed, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if err := seed.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	rec := pbio.Record{"cntrID": "A", "fltNum": 1, "eta": []uint64{1}}
	if err := pub.PublishRecord("flights", f, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Next(); err != nil {
		t.Fatal(err)
	}

	bad, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	err = bad.SubscribeFields("flights", "no_such_field")
	if err == nil {
		t.Fatal("expected broker error for impossible scope")
	}
	if !errors.Is(err, ErrBroker) {
		t.Fatalf("error not typed: %v (%T)", err, err)
	}
	var be *BrokerError
	if !errors.As(err, &be) || be.Msg == "" {
		t.Fatalf("no BrokerError with message in %v", err)
	}
}

// TestBrokerErrorHarvestedByPublisher proves the publisher folds a pending
// frameError into the write failure that follows it.
func TestBrokerErrorHarvestedByPublisher(t *testing.T) {
	// A fake broker that answers everything with frameError and closes —
	// the behaviour of a real broker rejecting a request.
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
		_, _, _, _ = readFrame(conn, nil)
		_ = writeFrame(conn, frameError, []byte("publish on \"x\" references unannounced format"))
		_ = conn.Close()
	}()

	pub, err := DialPublisher(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	f := flightFormat(t, machine.Sparc)
	rec := []byte{0, 0, 0, 0}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = pub.Publish("x", f, rec)
		if err != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err == nil {
		t.Fatal("publish against rejecting broker never failed")
	}
	if !errors.Is(err, ErrBroker) {
		t.Fatalf("write failure not annotated with broker error: %v", err)
	}
}

// TestStreamsSurfacesBrokerError covers the Streams call's error path.
func TestStreamsSurfacesBrokerError(t *testing.T) {
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
		_, _, _, _ = readFrame(conn, nil) // the frameList request
		_ = writeFrame(conn, frameError, []byte("listing disabled"))
		_ = conn.Close()
	}()
	sub, err := DialSubscriber(ln.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	_, err = sub.Streams()
	if !errors.Is(err, ErrBroker) {
		t.Fatalf("Streams error not typed: %v", err)
	}
	if err != nil && err.Error() != "eventbus: broker: listing disabled" {
		t.Fatalf("unexpected message: %v", err)
	}
}

// TestBrokerErrorIs pins the errors.Is contract.
func TestBrokerErrorIs(t *testing.T) {
	var err error = &BrokerError{Msg: "nope"}
	if !errors.Is(err, ErrBroker) {
		t.Fatal("BrokerError must match ErrBroker")
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("BrokerError must not match unrelated sentinels")
	}
	wrapped := errorsJoin(err)
	if !errors.Is(wrapped, ErrBroker) {
		t.Fatal("wrapped BrokerError must still match")
	}
}

func errorsJoin(err error) error { return &wrapErr{err} }

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }
