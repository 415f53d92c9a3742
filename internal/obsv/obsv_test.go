package obsv

import (
	"sync"
	"testing"
)

// TestRegistryConcurrent exercises the registry under -race: parallel
// increments, observations and lookups interleaved with snapshots.
func TestRegistryConcurrent(t *testing.T) {
	r := New()
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("test.counter")
			ga := r.Gauge("test.gauge")
			h := r.Histogram("test.hist")
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Set(int64(i))
				h.Observe(int64(i))
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	// Snapshot continuously while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	snap := r.Snapshot()
	if got := snap["test.counter"]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := snap["test.hist.count"]; got != goroutines*perG {
		t.Errorf("hist count = %d, want %d", got, goroutines*perG)
	}
	if got := snap["test.hist.max"]; got != perG-1 {
		t.Errorf("hist max = %d, want %d", got, perG-1)
	}
}

// TestHotPathAllocs guards the issue's zero-allocation contract for the
// counter/gauge/histogram hot paths.
func TestHotPathAllocs(t *testing.T) {
	r := New()
	c := r.Counter("allocs.counter")
	g := r.Gauge("allocs.gauge")
	h := r.Histogram("allocs.hist")
	var i int64
	if n := testing.AllocsPerRun(1000, func() { i++; c.Add(i) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { i++; g.Set(i) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { i++; h.Observe(i) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per op, want 0", n)
	}
	// Nil instruments must be free no-ops too.
	var nc *Counter
	var nh *Histogram
	if n := testing.AllocsPerRun(1000, func() { nc.Inc(); nh.Observe(1) }); n != 0 {
		t.Errorf("nil instrument ops allocate %.1f per op, want 0", n)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("q")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	v := h.Value()
	if v.Count != 1000 || v.Max != 1000 {
		t.Fatalf("count=%d max=%d", v.Count, v.Max)
	}
	p50 := v.Quantile(0.50)
	// Bucketed estimate: the true median 500 lives in the [512,1023] or
	// [256,511] bucket; accept the power-of-two bound.
	if p50 < 255 || p50 > 1023 {
		t.Errorf("p50 = %d, outside plausible bucket bounds", p50)
	}
	if p99 := v.Quantile(0.99); p99 != 1000 {
		t.Errorf("p99 = %d, want clamped max 1000", p99)
	}
	if z := (HistogramValue{}).Quantile(0.5); z != 0 {
		t.Errorf("empty quantile = %d, want 0", z)
	}
}

func TestScopeAndDelta(t *testing.T) {
	r := New()
	s := r.Scope("eventbus")
	s.Counter("published").Add(5)
	before := r.Snapshot()
	s.Counter("published").Add(2)
	after := r.Snapshot()
	if before["eventbus.published"] != 5 || after["eventbus.published"] != 7 {
		t.Fatalf("scoped counter wrong: %v -> %v", before, after)
	}
	if d := Delta(before, after); d["eventbus.published"] != 2 {
		t.Errorf("delta = %d, want 2", d["eventbus.published"])
	}
	// Same name resolves to the same instrument.
	if r.Counter("eventbus.published").Load() != 7 {
		t.Error("scope and registry disagree on instrument identity")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.Func("x", func() int64 { return 1 })
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Errorf("nil registry snapshot = %v, want empty", snap)
	}
}
