package obsv

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// The runtime/metrics bridge: a sampler that copies the Go runtime's own
// telemetry into an obsv Registry, so GC pauses, scheduler latency, heap size
// and goroutine counts ride the exact same rails as application metrics:
// Snapshot, /metrics and omtop show them with no extra wiring. The runtime
// exposes its histograms as cumulative bucket counts; Sample replays the
// per-tick count deltas into the striped obsv histograms via
// Histogram.AddSamples, using each bucket's upper bound (in nanoseconds) as
// the representative value, so .p50/.p95/.p99 read as conservative
// (pessimistic-by-one-bucket) quantiles.

// Registered names, all under the "runtime" scope:
//
//	runtime.gc.pause_ns          histogram of stop-the-world GC pauses
//	runtime.sched.latency_ns     histogram of goroutine scheduling latency
//	runtime.heap.alloc_bytes     gauge: bytes in live + dead heap objects
//	runtime.mem.total_bytes      gauge: total memory mapped by the runtime
//	runtime.goroutines           gauge: live goroutine count
//	runtime.gc.cycles            gauge: completed GC cycles since start

// RuntimeBridge samples runtime/metrics into a Registry. Create one per
// process (per registry) and drive it with Start or explicit Sample calls.
type RuntimeBridge struct {
	gcPause  *Histogram
	schedLat *Histogram
	heap     *Gauge
	total    *Gauge
	gor      *Gauge
	gcCycles *Gauge

	// chosen runtime metric names (empty when the running Go version lacks
	// the metric; the preference lists below tolerate renames across
	// versions rather than silently sampling nothing).
	gcPauseName, schedLatName, heapName, totalName, gorName, gcCyclesName string

	mu      sync.Mutex
	samples []metrics.Sample
	prev    map[string][]uint64 // previous cumulative bucket counts
}

// NewRuntimeBridge registers the runtime instruments under r's "runtime"
// scope and returns a bridge that has not yet sampled.
func NewRuntimeBridge(r *Registry) *RuntimeBridge {
	s := r.Scope("runtime")
	b := &RuntimeBridge{
		gcPause:  s.Histogram("gc.pause_ns"),
		schedLat: s.Histogram("sched.latency_ns"),
		heap:     s.Gauge("heap.alloc_bytes"),
		total:    s.Gauge("mem.total_bytes"),
		gor:      s.Gauge("goroutines"),
		gcCycles: s.Gauge("gc.cycles"),
		prev:     make(map[string][]uint64),
	}
	avail := make(map[string]bool)
	for _, d := range metrics.All() {
		avail[d.Name] = true
	}
	pick := func(names ...string) string {
		for _, n := range names {
			if avail[n] {
				b.samples = append(b.samples, metrics.Sample{Name: n})
				return n
			}
		}
		return ""
	}
	b.gcPauseName = pick("/sched/pauses/total/gc:seconds", "/gc/pauses:seconds")
	b.schedLatName = pick("/sched/latencies:seconds")
	b.heapName = pick("/memory/classes/heap/objects:bytes")
	b.totalName = pick("/memory/classes/total:bytes")
	b.gorName = pick("/sched/goroutines:goroutines")
	b.gcCyclesName = pick("/gc/cycles/total:gc-cycles")
	return b
}

// Sample reads the runtime metrics once and folds them into the registry:
// gauges are set, histograms get the bucket-count deltas since the previous
// Sample (the first Sample replays the process-lifetime counts, matching the
// cumulative-since-start semantics of every other obsv histogram).
func (b *RuntimeBridge) Sample() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.samples) == 0 {
		return
	}
	metrics.Read(b.samples)
	for i := range b.samples {
		s := &b.samples[i]
		switch s.Name {
		case b.gcPauseName:
			b.replay(s, b.gcPause)
		case b.schedLatName:
			b.replay(s, b.schedLat)
		case b.heapName:
			b.heap.Set(uintGauge(s))
		case b.totalName:
			b.total.Set(uintGauge(s))
		case b.gorName:
			b.gor.Set(uintGauge(s))
		case b.gcCyclesName:
			b.gcCycles.Set(uintGauge(s))
		}
	}
}

func uintGauge(s *metrics.Sample) int64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	v := s.Value.Uint64()
	if v > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// replay folds one cumulative Float64Histogram (unit: seconds) into h as
// nanosecond samples, one AddSamples per bucket whose count grew.
func (b *RuntimeBridge) replay(s *metrics.Sample, h *Histogram) {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	fh := s.Value.Float64Histogram()
	if fh == nil || len(fh.Buckets) != len(fh.Counts)+1 {
		return
	}
	prev := b.prev[s.Name]
	for i, c := range fh.Counts {
		var p uint64
		if i < len(prev) {
			p = prev[i]
		}
		if c <= p {
			continue
		}
		// Representative value: the bucket's upper bound in ns; the +Inf
		// tail bucket falls back to its (finite) lower bound.
		bound := fh.Buckets[i+1]
		if math.IsInf(bound, 0) {
			bound = fh.Buckets[i]
		}
		if math.IsInf(bound, 0) || math.IsNaN(bound) {
			bound = 0
		}
		h.AddSamples(int64(bound*1e9), int64(c-p))
	}
	if len(prev) != len(fh.Counts) {
		prev = make([]uint64, len(fh.Counts))
	}
	copy(prev, fh.Counts)
	b.prev[s.Name] = prev
}

// Start samples every interval (default 1s) until the returned stop function
// is called. Safe to call stop more than once.
func (b *RuntimeBridge) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				b.Sample()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// StartRuntimeMetrics is the one-call daemon form: register the bridge on r,
// take an immediate first sample so the instruments are populated before the
// first scrape, and start the periodic pump. Returns the stop function.
func StartRuntimeMetrics(r *Registry, interval time.Duration) (stop func()) {
	b := NewRuntimeBridge(r)
	b.Sample()
	return b.Start(interval)
}
