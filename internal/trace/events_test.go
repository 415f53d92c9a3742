package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRecordSnapshotRoundTrip(t *testing.T) {
	r := New(16, 0)
	r.Record(KindConnOpen, 7, "", 0, 0, "127.0.0.1:9")
	r.Record(KindFormatRecv, 7, "flights", 0xdeadbeef, 42, "")
	r.Record(KindConnClose, 7, "", 0, 0, "EOF")

	evs, _ := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(evs))
	}
	// Newest first.
	if evs[0].Kind != "conn_close" || evs[1].Kind != "format_recv" || evs[2].Kind != "conn_open" {
		t.Fatalf("order = %s,%s,%s", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	fr := evs[1]
	if fr.Conn != 7 || fr.Stream != "flights" || fr.Format != 0xdeadbeef || fr.Bytes != 42 {
		t.Fatalf("format_recv event = %+v", fr)
	}
	if evs[2].Detail != "127.0.0.1:9" {
		t.Fatalf("detail = %q", evs[2].Detail)
	}
	if !evs[0].Time.After(evs[2].Time) && !evs[0].Time.Equal(evs[2].Time) {
		t.Fatalf("timestamps not monotone: %v then %v", evs[2].Time, evs[0].Time)
	}
}

func TestRingWraps(t *testing.T) {
	r := New(4, 0)
	for i := 0; i < 10; i++ {
		r.Record(KindFormatSend, uint64(i), "s", 0, int64(i), "")
	}
	evs, total := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(evs))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if evs[i].Seq != want {
			t.Fatalf("evs[%d].Seq = %d, want %d", i, evs[i].Seq, want)
		}
	}
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
}

func TestStringTruncation(t *testing.T) {
	r := New(2, 0)
	long := strings.Repeat("s", 100)
	r.Record(KindBrokerError, 1, long, 0, 0, strings.Repeat("d", 100))
	evs, _ := r.Events()
	ev := evs[0]
	if len(ev.Stream) != len(slot{}.stream) || !strings.HasPrefix(long, ev.Stream) {
		t.Fatalf("stream truncated to %d bytes: %q", len(ev.Stream), ev.Stream)
	}
	if len(ev.Detail) != len(slot{}.detail) {
		t.Fatalf("detail truncated to %d bytes", len(ev.Detail))
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(KindConnOpen, 1, "s", 0, 0, "d") // must not panic
	if evs, total := r.Events(); evs != nil || total != 0 {
		t.Fatal("nil recorder not empty")
	}
}

// TestKindNamesRoundTrip: every kind has a name of its own, and a protocol
// event kind's name selects exactly that kind in the ?kind= filter.
func TestKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := KindConnOpen; k < kindMax; k++ {
		name := k.String()
		if name == "unknown" || name == "" || seen[name] {
			t.Fatalf("kind %d has no name of its own: %q", k, name)
		}
		seen[name] = true
		if got := kindsWithPrefix(name); k < KindPublish && (len(got) != 1 || got[0] != k) {
			t.Fatalf("kindsWithPrefix(%q) = %v, want [%d]", name, got, k)
		}
	}
	if Kind(0).String() != "unknown" || kindMax.String() != "unknown" || kindsWithPrefix("nope") != nil {
		t.Fatal("zero/unknown kind mishandled")
	}
}

// TestRecordAllocationFree is the acceptance gate: the record path must not
// allocate, even with both string fields populated.
func TestRecordAllocationFree(t *testing.T) {
	r := New(64, 0)
	stream := "orders.us-east"
	detail := "write tcp 127.0.0.1:1->127.0.0.1:2: connection reset"
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KindFormatSend, 3, stream, 0x1234, 512, detail)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per call, want 0", allocs)
	}
}

func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New(32, 0)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(id uint64) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				r.Record(KindFormatRecv, id, "stream-name-here", uint64(i), int64(i), "some detail text")
			}
		}(uint64(g))
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	for {
		evs, _ := r.Events()
		for i, ev := range evs {
			if ev.Kind != "format_recv" || ev.Stream != "stream-name-here" || ev.Detail != "some detail text" ||
				ev.Format != uint64(ev.Bytes) {
				t.Fatalf("torn event: %+v", ev)
			}
			if i > 0 && ev.Seq != evs[i-1].Seq-1 {
				t.Fatalf("snapshot not newest-first without gaps: seq %d after %d", ev.Seq, evs[i-1].Seq)
			}
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestNextConnIDUnique(t *testing.T) {
	a, b := NextConnID(), NextConnID()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("NextConnID not unique/nonzero: %d %d", a, b)
	}
}

func TestHandlerFilters(t *testing.T) {
	r := New(32, 0)
	r.Record(KindConnOpen, 1, "", 0, 0, "a")
	r.Record(KindFormatSend, 1, "alpha", 10, 100, "")
	r.Record(KindFormatSend, 2, "beta", 20, 200, "")
	r.Record(KindConnClose, 2, "", 0, 0, "bye")

	get := func(q string) (uint64, []Event) {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/flight"+q, nil)
		rec := httptest.NewRecorder()
		EventHandler(r).ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", q, rec.Code, rec.Body.String())
		}
		var body struct {
			Total  uint64  `json:"total"`
			Events []Event `json:"events"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", q, err)
		}
		return body.Total, body.Events
	}

	total, evs := get("")
	if total != 4 || len(evs) != 4 {
		t.Fatalf("unfiltered: total=%d len=%d", total, len(evs))
	}
	if evs[0].Kind != "conn_close" {
		t.Fatalf("not newest-first: %+v", evs[0])
	}
	if _, evs = get("?conn=2"); len(evs) != 2 {
		t.Fatalf("conn=2: %d events", len(evs))
	}
	if _, evs = get("?stream=alpha"); len(evs) != 1 || evs[0].Format != 10 {
		t.Fatalf("stream=alpha: %+v", evs)
	}
	if _, evs = get("?kind=format_send"); len(evs) != 2 {
		t.Fatalf("kind=format_send: %d events", len(evs))
	}
	if _, evs = get("?n=1"); len(evs) != 1 || evs[0].Kind != "conn_close" {
		t.Fatalf("n=1: %+v", evs)
	}
	if _, evs = get("?kind=format_send&conn=1&stream=alpha"); len(evs) != 1 {
		t.Fatalf("combined filters: %d events", len(evs))
	}

	for _, bad := range []string{"?kind=bogus", "?conn=x", "?n=0"} {
		req := httptest.NewRequest("GET", "/debug/flight"+bad, nil)
		rec := httptest.NewRecorder()
		EventHandler(r).ServeHTTP(rec, req)
		if rec.Code != 400 {
			t.Fatalf("GET %s: status %d, want 400", bad, rec.Code)
		}
	}
}

func TestKindsWithPrefix(t *testing.T) {
	got := kindsWithPrefix("format")
	if len(got) != 2 || got[0] != KindFormatSend || got[1] != KindFormatRecv {
		t.Fatalf("kindsWithPrefix(format) = %v", got)
	}
	if got := kindsWithPrefix("conn"); len(got) != 2 {
		t.Fatalf("kindsWithPrefix(conn) = %v", got)
	}
	if kindsWithPrefix("zzz") != nil || kindsWithPrefix("") != nil {
		t.Fatal("non-matching prefixes must return nil")
	}
}

// TestHandlerKindFamilyFilter: ?kind=format must select both format kinds
// and nothing else; exact names keep working.
func TestHandlerKindFamilyFilter(t *testing.T) {
	r := New(16, 0)
	r.Record(KindConnOpen, 1, "", 0, 0, "")
	r.Record(KindFormatSend, 1, "s", 1, 10, "")
	r.Record(KindBrokerError, 1, "s", 1, 1, "")
	r.Record(KindFormatRecv, 2, "s", 1, 10, "")

	get := func(q string) []Event {
		t.Helper()
		req := httptest.NewRequest("GET", "/debug/flight"+q, nil)
		rec := httptest.NewRecorder()
		EventHandler(r).ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", q, rec.Code, rec.Body.String())
		}
		var body struct {
			Events []Event `json:"events"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", q, err)
		}
		return body.Events
	}

	evs := get("?kind=format")
	if len(evs) != 2 || evs[0].Kind != "format_recv" || evs[1].Kind != "format_send" {
		t.Fatalf("kind=format: %+v", evs)
	}
	if evs := get("?kind=format_send"); len(evs) != 1 || evs[0].Conn != 1 {
		t.Fatalf("kind=format_send: %+v", evs)
	}
}
