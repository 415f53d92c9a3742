package obsv

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterVecChildren(t *testing.T) {
	r := New()
	wire := r.CounterVec("wire.bytes", "stream", "format")
	wire.With("orders", "f1").Add(100)
	wire.With("orders", "f1").Add(50) // same child
	wire.With("orders", "f2").Add(7)
	wire.With("audit", "f1").Add(1)

	snap := r.Snapshot()
	cases := map[string]int64{
		`wire.bytes{stream="orders",format="f1"}`: 150,
		`wire.bytes{stream="orders",format="f2"}`: 7,
		`wire.bytes{stream="audit",format="f1"}`:  1,
	}
	for k, want := range cases {
		if snap[k] != want {
			t.Errorf("snap[%q] = %d, want %d (snapshot: %v)", k, snap[k], want, snap)
		}
	}
	// Same name resolves to the same vector.
	if r.CounterVec("wire.bytes", "stream", "format") != wire {
		t.Fatal("CounterVec not idempotent")
	}
}

func TestGaugeAndHistogramVecSnapshot(t *testing.T) {
	r := New()
	r.GaugeVec("ratio", "format").With("f1").Set(642)
	h := r.Histogram("lat")
	h.Observe(100)
	h.Observe(200)

	snap := r.Snapshot()
	if snap[`ratio{format="f1"}`] != 642 {
		t.Fatalf("gauge child missing: %v", snap)
	}
	if snap["lat.count"] != 2 || snap["lat.sum"] != 300 {
		t.Fatalf("histogram missing: %v", snap)
	}
}

func TestVecNilSafe(t *testing.T) {
	var r *Registry
	r.CounterVec("x", "k").With("v").Add(1) // all no-ops
	r.GaugeVec("x", "k").With("v").Set(1)
}

func TestVecMissingAndExtraValues(t *testing.T) {
	r := New()
	v := r.CounterVec("c", "a", "b")
	v.With("only").Add(1)              // missing b -> ""
	v.With("x", "y", "ignored").Add(2) // extra value dropped
	snap := r.Snapshot()
	if snap[`c{a="only",b=""}`] != 1 || snap[`c{a="x",b="y"}`] != 2 {
		t.Fatalf("snapshot: %v", snap)
	}
}

func TestLabelSetEscaping(t *testing.T) {
	ls := LabelSet{{Key: "k", Value: `a"b\c` + "\n"}}
	want := `{k="a\"b\\c\n"}`
	if got := ls.String(); got != want {
		t.Fatalf("LabelSet.String() = %q, want %q", got, want)
	}
	if (LabelSet{}).String() != "" {
		t.Fatal("empty LabelSet should render empty")
	}
}

func TestVecChildHotPathAllocationFree(t *testing.T) {
	r := New()
	c := r.CounterVec("c", "k").With("v")
	g := r.GaugeVec("g", "k").With("v")
	if allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
	}); allocs != 0 {
		t.Fatalf("labeled child hot path allocates %.1f per run", allocs)
	}
}

func TestScopedVecs(t *testing.T) {
	r := New()
	r.Scope("bus").CounterVec("wire.records", "stream").With("s1").Inc()
	if got := r.Snapshot()[`bus.wire.records{stream="s1"}`]; got != 1 {
		t.Fatalf("scoped vec child = %d, want 1", got)
	}
}

func TestPrometheusLabeledSeries(t *testing.T) {
	r := New()
	r.CounterVec("pbio.wire.bytes", "format", "dir").With("point3d", "enc").Add(4096)
	r.GaugeVec("pbio.xml.expansion", "format").With("point3d").Set(700)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, req)
	body := rec.Body.String()

	for _, want := range []string{
		"# TYPE pbio_wire_bytes counter\n",
		`pbio_wire_bytes{format="point3d",dir="enc"} 4096` + "\n",
		"# TYPE pbio_xml_expansion gauge\n",
		`pbio_xml_expansion{format="point3d"} 700` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, body)
		}
	}
}
