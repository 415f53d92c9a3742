package eventbus

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openmeta/internal/faultnet"
	"openmeta/internal/flight"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// chronological reverses a newest-first snapshot.
func chronological(evs []flight.Event) []flight.Event {
	out := make([]flight.Event, len(evs))
	for i, e := range evs {
		out[len(evs)-1-i] = e
	}
	return out
}

// TestFlightRecordsReconnectSequence: a fault-injected connection dies
// mid-frame during a publish, and the black box must show the recovery —
// connection close, reconnect, metadata re-send — as ordered events,
// retrievable through the /debug/flight handler. The record retry shows in
// the records the subscriber reads, not in the ring.
func TestFlightRecordsReconnectSequence(t *testing.T) {
	rec := flight.New(512)
	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	f := flightFormat(t, machine.Sparc)

	sub, err := DialSubscriber(b.Addr().String(), subCtx(t), WithClientFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}

	// Byte budget expiring 3 bytes into the second publish frame: announce,
	// format metadata and the first record flow, then the wire dies
	// mid-frame-header.
	rec1 := encodeFlight(t, f, 1001)
	meta := pbio.MarshalMeta(f)
	stream := "flights"
	budget := (5 + 2 + len(stream)) +
		(5 + len(meta)) +
		(5 + 2 + len(stream) + 8 + len(rec1)) +
		3
	dialFn, _ := faultyFirstDial(faultnet.NewSchedule(
		faultnet.Fault{Kind: faultnet.DropAfter, N: budget}))

	pub, err := DialPublisherContext(context.Background(), b.Addr().String(),
		WithDialFunc(dialFn), WithReconnect(fastReconnect()), WithClientFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Announce(stream); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(stream, f, rec1); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(stream, f, encodeFlight(t, f, 2002)); err != nil {
		t.Fatalf("Publish across the fault = %v", err)
	}
	for _, want := range []int{1001, 2002} {
		ev, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ev.Decode()
		if err != nil {
			t.Fatal(err)
		}
		wantFlt(t, r, want)
	}

	// Reduce the black box to the publisher's own story: find its connection
	// ids from the conn_open events, then keep only events on those ids.
	evs := chronological(rec.Snapshot())
	pubConns := make(map[uint64]bool)
	for _, e := range evs {
		if e.Kind == "conn_open" && strings.HasPrefix(e.Detail, "publisher ") {
			pubConns[e.Conn] = true
		}
	}
	if len(pubConns) != 2 {
		t.Fatalf("publisher connection ids = %d, want 2 (original + reconnect)", len(pubConns))
	}
	var story []string
	for _, e := range evs {
		if pubConns[e.Conn] {
			story = append(story, e.Kind)
		}
	}
	// The ordered recovery: open, metadata, death mid-frame, reconnect,
	// metadata re-send.
	want := []string{"conn_open", "format_send", "conn_close", "conn_open", "reconnect", "format_send"}
	if got := strings.Join(story, " "); got != strings.Join(want, " ") {
		t.Fatalf("publisher flight story:\n got %s\nwant %s", got, strings.Join(want, " "))
	}

	// The same story must come out of the /debug/flight HTTP handler,
	// newest-first and filterable by connection.
	var newConn uint64
	for _, e := range evs {
		if e.Kind == "reconnect" && pubConns[e.Conn] {
			newConn = e.Conn
		}
	}
	req := httptest.NewRequest("GET", fmt.Sprintf("/debug/flight?conn=%d", newConn), nil)
	w := httptest.NewRecorder()
	flight.Handler(rec).ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("/debug/flight = HTTP %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Events []flight.Event `json:"events"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range chronological(resp.Events) {
		kinds = append(kinds, e.Kind)
	}
	if got := strings.Join(kinds, " "); got != "conn_open reconnect format_send" {
		t.Fatalf("/debug/flight?conn=%d story = %q", newConn, got)
	}
}

// TestFlightRecordsNoTraffic: the ring keeps connection history, not
// traffic. Once a publisher, a plain and a scoped subscriber have exchanged
// their first records, thousands more add no event, so every connection's
// conn_open outlives them even in a small ring.
func TestFlightRecordsNoTraffic(t *testing.T) {
	rec := flight.New(256)
	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	f := flightFormat(t, machine.Sparc)

	var subs []*Subscriber
	for _, scope := range [][]string{nil, {"cntrID", "eta"}} {
		sub, err := DialSubscriber(b.Addr().String(), subCtx(t), WithClientFlightRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		if err := sub.SubscribeFields("flights", scope...); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	pub, err := DialPublisher(b.Addr().String(), WithClientFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// relay publishes n records and reads them on both subscribers, in
	// batches the subscriber queues hold, so none is dropped.
	data := encodeFlight(t, f, 7)
	relay := func(n int) {
		t.Helper()
		for ; n > 0; n -= 100 {
			batch := min(n, 100)
			for i := 0; i < batch; i++ {
				if err := pub.Publish("flights", f, data); err != nil {
					t.Fatal(err)
				}
			}
			for _, sub := range subs {
				for i := 0; i < batch; i++ {
					if _, err := sub.Next(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	total := func() uint64 {
		t.Helper()
		w := httptest.NewRecorder()
		flight.Handler(rec).ServeHTTP(w, httptest.NewRequest("GET", "/debug/flight?n=1", nil))
		var resp struct {
			Total uint64 `json:"total"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Total
	}
	opened := func() map[uint64]bool {
		ids := make(map[uint64]bool)
		for _, e := range rec.Snapshot() {
			if e.Kind == "conn_open" {
				ids[e.Conn] = true
			}
		}
		return ids
	}

	relay(10)
	before, conns := total(), opened()
	if len(conns) != 6 {
		t.Fatalf("conn_open events for %d connections, want 6 (three clients, three broker sides)", len(conns))
	}
	relay(5000)
	if after := total(); after != before {
		t.Errorf("5000 records added %d flight events", after-before)
	}
	still := opened()
	for id := range conns {
		if !still[id] {
			t.Errorf("conn_open of connection %d evicted by traffic", id)
		}
	}
}

// TestAnnouncedStreamsAddNoRegistryKeys: stream names come from peers, so
// announcing one must not mint metric names. Per-stream counts live in the
// labeled wire.* families, whose children are bounded.
func TestAnnouncedStreamsAddNoRegistryKeys(t *testing.T) {
	reg := obsv.New()
	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Dial("tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	announce := func(name string) {
		t.Helper()
		if err := writeFrame(conn, frameAnnounce, putStr(nil, name)); err != nil {
			t.Fatal(err)
		}
	}

	announce("first") // the connection's own keys exist once this is handled
	testutil.WaitFor(t, 2*time.Second, "the first announce", func() bool { return len(b.Streams()) == 1 })
	before := reg.Snapshot()
	const n = 5000
	for i := 0; i < n; i++ {
		announce(fmt.Sprintf("peer.chosen.%d", i))
	}
	testutil.WaitFor(t, 10*time.Second, "every announce", func() bool { return len(b.Streams()) == n+1 })
	added := 0
	for k := range reg.Snapshot() {
		if _, ok := before[k]; !ok {
			added++
		}
	}
	if added != 0 {
		t.Fatalf("announcing %d streams added %d registry keys", n, added)
	}
}

// TestBrokerRecordsCutAfterHeader: a connection that dies right behind a
// frame header has lost a frame, so the broker's black box must say why it
// closed — an io.ErrUnexpectedEOF from the shared decoder — instead of the
// empty conn_close a clean disconnect leaves.
func TestBrokerRecordsCutAfterHeader(t *testing.T) {
	rec := flight.New(64)
	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithFlightRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// A byte budget of exactly one frame header.
	dial := faultnet.Dialer(faultnet.NewSchedule(faultnet.Fault{Kind: faultnet.DropAfter, N: pbio.FrameHeaderLen}))
	conn, err := dial(context.Background(), "tcp", b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameAnnounce, putStr(nil, "flights")); !errors.Is(err, faultnet.ErrInjected) {
		t.Fatalf("write across the budget: err = %v, want the injected fault", err)
	}

	var detail string
	testutil.WaitFor(t, 2*time.Second, "the broker's conn_close event", func() bool {
		for _, e := range rec.Snapshot() {
			if e.Kind == "conn_close" {
				detail = e.Detail
				return true
			}
		}
		return false
	})
	if !strings.Contains(detail, io.ErrUnexpectedEOF.Error()) {
		t.Fatalf("conn_close detail = %q, want the cause (%v)", detail, io.ErrUnexpectedEOF)
	}
}

// TestBrokerWireAccounting checks the labeled per-stream × per-format
// families on the broker: published and delivered records/bytes plus
// metadata bytes must land under {stream, format} children.
func TestBrokerWireAccounting(t *testing.T) {
	reg := obsv.New()
	b, err := Listen("127.0.0.1:0", WithSlog(quietLogger), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
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
	data := encodeFlight(t, f, 7)
	if err := pub.Publish("flights", f, data); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	labels := `{stream="flights",format="ASDOffEvent"}`
	if got := snap["eventbus.wire.records"+labels]; got != 1 {
		t.Errorf("wire.records%s = %d, want 1", labels, got)
	}
	if got := snap["eventbus.wire.bytes"+labels]; got != int64(len(data)) {
		t.Errorf("wire.bytes%s = %d, want %d", labels, got, len(data))
	}
	if got := snap["eventbus.wire.delivered.records"+labels]; got != 1 {
		t.Errorf("wire.delivered.records%s = %d, want 1", labels, got)
	}
	if got := snap["eventbus.wire.delivered.bytes"+labels]; got == 0 {
		t.Errorf("wire.delivered.bytes%s = 0, want > 0", labels)
	}
	meta := pbio.MarshalMeta(f)
	if got := snap["eventbus.wire.meta.bytes"+labels]; got != int64(len(meta)) {
		t.Errorf("wire.meta.bytes%s = %d, want %d", labels, got, len(meta))
	}
}
