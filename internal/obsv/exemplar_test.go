package obsv

import (
	"encoding/hex"
	"strings"
	"sync"
	"testing"
)

func testTraceID(b byte) [16]byte {
	var tid [16]byte
	for i := range tid {
		tid[i] = b
	}
	return tid
}

func TestObserveExemplarRecordsPerBucket(t *testing.T) {
	r := New()
	h := r.Histogram("lat.ns")
	tidA, tidB := testTraceID(0xaa), testTraceID(0xbb)
	h.ObserveExemplar(100, tidA)  // bucket 7 (le=127)
	h.ObserveExemplar(1000, tidB) // bucket 10 (le=1023)
	h.Observe(5)                  // untraced: counts only

	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("exemplars = %+v, want 2", ex)
	}
	if ex[0].Bucket != 7 || ex[0].Value != 100 || ex[0].TraceID != hex.EncodeToString(tidA[:]) {
		t.Fatalf("bucket-7 exemplar = %+v", ex[0])
	}
	if ex[1].Bucket != 10 || ex[1].Value != 1000 || ex[1].TraceID != hex.EncodeToString(tidB[:]) {
		t.Fatalf("bucket-10 exemplar = %+v", ex[1])
	}
	if ex[0].TimeUnixNS <= 0 || ex[1].TimeUnixNS <= 0 {
		t.Fatalf("timestamps not stamped: %+v", ex)
	}
	// The histogram counts include every observation, traced or not.
	if v := h.Value(); v.Count != 3 || v.Sum != 1105 {
		t.Fatalf("count=%d sum=%d, want 3/1105", v.Count, v.Sum)
	}
	// A later traced observation in the same bucket replaces the exemplar.
	tidC := testTraceID(0xcc)
	h.ObserveExemplar(99, tidC)
	if got := h.Exemplars()[0]; got.Value != 99 || got.TraceID != hex.EncodeToString(tidC[:]) {
		t.Fatalf("bucket-7 exemplar after overwrite = %+v", got)
	}
}

func TestObserveExemplarZeroTraceIDAndDisabled(t *testing.T) {
	t.Cleanup(func() { SetExemplars(true) })
	h := New().Histogram("lat.ns")
	h.ObserveExemplar(100, [16]byte{}) // unsampled request: no exemplar
	if ex := h.Exemplars(); ex != nil {
		t.Fatalf("zero TraceID recorded an exemplar: %+v", ex)
	}
	SetExemplars(false)
	h.ObserveExemplar(100, testTraceID(1))
	if ex := h.Exemplars(); ex != nil {
		t.Fatalf("disabled capture recorded an exemplar: %+v", ex)
	}
	if v := h.Value(); v.Count != 2 {
		t.Fatalf("count = %d, want 2 (observations must still count)", v.Count)
	}
	SetExemplars(true)
	h.ObserveExemplar(100, testTraceID(1))
	if len(h.Exemplars()) != 1 {
		t.Fatal("re-enabled capture recorded nothing")
	}
}

func TestNilHistogramExemplars(t *testing.T) {
	var h *Histogram
	h.ObserveExemplar(1, testTraceID(1)) // must not panic
	if h.Exemplars() != nil {
		t.Fatal("nil histogram returned exemplars")
	}
	var r *Registry
	if r.FindHistogram("x") != nil {
		t.Fatal("nil registry found a histogram")
	}
}

// TestRegistryExemplarsIncludesLabeledChildren checks the registry's
// exemplar output: a traced histogram's bucket carries one, while histograms
// that never saw a traced sample and labeled children (counters and gauges
// only) carry none.
func TestRegistryExemplarsIncludesLabeledChildren(t *testing.T) {
	r := New()
	r.Histogram("plain.ns").ObserveExemplar(7, testTraceID(2))
	r.Histogram("silent.ns").Observe(7) // no exemplar: omitted
	r.CounterVec("rt.calls", "stream").With("orders").Inc()

	var b strings.Builder
	r.writePrometheus(&b, true)
	got := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		series, ex, ok := strings.Cut(line, " # ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(series, " ")
		got[name] = ex
	}
	ex, ok := got[`plain_ns_bucket{le="7"}`]
	if len(got) != 1 || !ok || !strings.HasPrefix(ex, `{trace_id="`+strings.Repeat("02", 16)+`"} 7 `) {
		t.Fatalf("exemplar series = %v, want plain.ns alone", got)
	}
}

func TestFindHistogram(t *testing.T) {
	r := New()
	h := r.Histogram("lat.ns")

	if got := r.FindHistogram("lat.ns"); got != h {
		t.Fatalf("FindHistogram(lat.ns) = %p, want %p", got, h)
	}
	for _, name := range []string{"nope", `lat.ns{stream="orders"}`, `nope{a="b"}`} {
		if got := r.FindHistogram(name); got != nil {
			t.Fatalf("FindHistogram(%q) = %p, want nil (must not create)", name, got)
		}
	}
	// FindHistogram must never have created instruments as a side effect.
	if n := len(r.Snapshot()); n != 6 {
		t.Fatalf("snapshot has %d keys after lookups, want 6", n)
	}
}

// TestExemplarHotPathAllocs pins the hot-path contract the bench gate
// enforces: recording with a zero TraceID, with capture disabled, and in
// steady state with capture on are all allocation-free. (AllocsPerRun's
// warm-up call absorbs the one-time slot-array allocation.)
func TestExemplarHotPathAllocs(t *testing.T) {
	t.Cleanup(func() { SetExemplars(true) })
	h := New().Histogram("lat.ns")
	tid := testTraceID(4)

	if n := testing.AllocsPerRun(1000, func() { h.ObserveExemplar(42, [16]byte{}) }); n != 0 {
		t.Fatalf("unsampled ObserveExemplar allocates %v per run", n)
	}
	SetExemplars(false)
	if n := testing.AllocsPerRun(1000, func() { h.ObserveExemplar(42, tid) }); n != 0 {
		t.Fatalf("disabled ObserveExemplar allocates %v per run", n)
	}
	SetExemplars(true)
	if n := testing.AllocsPerRun(1000, func() { h.ObserveExemplar(42, tid) }); n != 0 {
		t.Fatalf("steady-state sampled ObserveExemplar allocates %v per run", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.ObserveExemplar(42, tid) }); n != 0 {
		t.Fatalf("nil ObserveExemplar allocates %v per run", n)
	}
}

// TestExemplarConcurrent hammers one histogram from writer and reader
// goroutines — the seqlock must never hand a reader a torn exemplar (a
// TraceID that was not written whole with its value).
func TestExemplarConcurrent(t *testing.T) {
	h := New().Histogram("lat.ns")
	valid := map[string]int64{
		hex.EncodeToString(append(make([]byte, 15), 1)): 100,
		hex.EncodeToString(append(make([]byte, 15), 2)): 101,
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := [16]byte{15: byte(1 + w%2)}
			v := int64(100 + w%2)
			for {
				select {
				case <-stop:
					return
				default:
					h.ObserveExemplar(v, tid)
				}
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		for _, ex := range h.Exemplars() {
			want, ok := valid[ex.TraceID]
			if !ok {
				t.Errorf("torn read: unknown TraceID %q", ex.TraceID)
			} else if ex.Value != want {
				t.Errorf("torn read: TraceID %q with value %d, want %d", ex.TraceID, ex.Value, want)
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkObserveExemplar times one traced observation on the steady-state
// hot path, for profiling. TestExemplarHotPathAllocs guards its allocations.
func BenchmarkObserveExemplar(b *testing.B) {
	h := New().Histogram("lat.ns")
	tid := testTraceID(5)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ObserveExemplar(42, tid)
		}
	})
}
