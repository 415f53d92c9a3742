package obsv

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestVecCardinalityClamp is the guard against unbounded label growth: a
// misbehaving label source (a stream name carrying a request id, say) must
// not grow /metrics without bound. Beyond the registry's max children per
// vec, new combinations share one overflow child and are counted.
func TestVecCardinalityClamp(t *testing.T) {
	r := New()
	r.SetMaxLabelChildren(3)
	cv := r.CounterVec("eventbus.wire.records", "stream")
	for i := 0; i < 10; i++ {
		cv.With(fmt.Sprintf("stream-%d", i)).Inc()
	}

	snap := r.Snapshot()
	distinct := 0
	for k := range snap {
		if strings.HasPrefix(k, "eventbus.wire.records{") && !strings.Contains(k, overflowLabel) {
			distinct++
		}
	}
	if distinct != 3 {
		t.Fatalf("distinct children = %d, want 3 (clamped)\nsnapshot: %v", distinct, snap)
	}
	over := snap[`eventbus.wire.records{stream="overflow"}`]
	if over != 7 {
		t.Fatalf("overflow child = %d, want 7", over)
	}
	if got := snap[DroppedLabelsCounter]; got != 7 {
		t.Fatalf("%s = %d, want 7", DroppedLabelsCounter, got)
	}

	// Existing children keep resolving directly even at the bound.
	cv.With("stream-0").Inc()
	if got := r.Snapshot()[`eventbus.wire.records{stream="stream-0"}`]; got != 2 {
		t.Fatalf("existing child after clamp = %d, want 2", got)
	}
	// And the clamp applies per vec: a second family gets its own budget.
	gv := r.GaugeVec("other.depth", "k")
	for i := 0; i < 5; i++ {
		gv.With(fmt.Sprintf("v%d", i)).Set(int64(i))
	}
	if got := r.Snapshot()[`other.depth{k="overflow"}`]; got == 0 && len(gv.v.m) > 3 {
		t.Fatalf("second vec not clamped: %d children", len(gv.v.m))
	}
}

func TestVecUnlimitedWhenBoundRemoved(t *testing.T) {
	r := New()
	r.SetMaxLabelChildren(0)
	cv := r.CounterVec("c", "k")
	for i := 0; i < 2*DefaultMaxVecChildren; i++ {
		cv.With(fmt.Sprintf("v%d", i)).Inc()
	}
	if got := len(cv.v.m); got != 2*DefaultMaxVecChildren {
		t.Fatalf("children = %d, want %d (unlimited)", got, 2*DefaultMaxVecChildren)
	}
	if _, ok := r.Snapshot()[DroppedLabelsCounter]; ok {
		t.Fatal("labels.dropped counter created with no drops")
	}
}

// TestDebugIndexListsEverything: every built-in endpoint, the recorder's
// two views among them, must appear on the /debug index page with its
// description, and the retired endpoints must be neither listed nor served.
func TestDebugIndexListsEverything(t *testing.T) {
	r := New()
	mux := DebugMux(r)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	req := httptest.NewRequest("GET", "/debug", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /debug: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"/metrics", "/debug/flight", "/debug/trace",
		"/healthz", "/readyz", "/debug/pprof/",
		"recent spans", "Prometheus", "flight recorder", "readiness",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug index missing %q:\n%s", want, body)
		}
	}
	for _, retired := range []string{"/debug/" + "contention", "/stats", "/debug/stats", "/debug/vars"} {
		if strings.Contains(body, `href="`+retired+`"`) {
			t.Fatalf("/debug index still lists %s:\n%s", retired, body)
		}
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", retired, nil))
		if rec.Code != 404 {
			t.Fatalf("GET %s: %d, want 404", retired, rec.Code)
		}
	}
}
