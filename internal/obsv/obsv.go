// Package obsv is the repo's observability layer: a lightweight,
// allocation-free counter/gauge/histogram registry built on atomics, with no
// dependencies outside the standard library.
//
// The paper's central claims are performance claims (Table 1: xml2wire
// registration ≈ 2x native PBIO, NDR ≫ XML-text per message), so the hot
// layers — pbio registration and codec paths, dcg plan compilation and
// caching, the event backbone, and metadata discovery — expose their costs
// here as named instruments. Default().Snapshot() reads the default
// registry in process, and DebugMux serves it over HTTP next to net/http/pprof so every
// later performance PR can prove its win against live counters.
//
// Hot-path contract: Counter.Add, Gauge.Set and Histogram.Observe perform no
// allocation and take no locks (guarded by testing.AllocsPerRun in the
// package tests). Instrument lookup (Registry.Counter etc.) takes a mutex
// and may allocate; resolve instruments once at setup time and hold the
// pointers. All instrument methods are nil-receiver safe, so optional
// instrumentation can be left nil without branching at call sites.
package obsv

import (
	"maps"
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is unusable;
// obtain counters from a Registry. A nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways (queue depths,
// cache sizes). A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histStripes spreads histogram updates over independent cache lines so
// concurrent observers do not serialize on one set of atomics. Must be a
// power of two.
const histStripes = 8

// histBuckets is one bucket per power of two of the observed value:
// bucket i counts values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i).
// Bucket 0 counts zeros.
const histBuckets = 65

type histStripe struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
	// pad the stripe out so adjacent stripes never share a cache line.
	_ [64]byte
}

// Histogram records a distribution of non-negative int64 samples
// (nanoseconds, byte counts) in power-of-two buckets, striped to stay cheap
// under concurrency. A nil *Histogram is a no-op.
type Histogram struct {
	stripes [histStripes]histStripe
	// ex holds the per-bucket exemplar slots (exemplar.go), allocated once
	// on the first traced observation so untraced histograms pay nothing.
	ex atomic.Pointer[[histBuckets]exemplarSlot]
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	s := &h.stripes[rand.Uint64()&(histStripes-1)]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bits.Len64(uint64(v))].Add(1)
	for {
		old := s.max.Load()
		if v <= old || s.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// AddSamples records n samples of value v in one stripe update — the bulk
// path the runtime/metrics bridge uses to replay bucket-count deltas from the
// Go runtime's cumulative histograms without looping Observe per sample.
// Negative v clamps to zero; n <= 0 is a no-op.
func (h *Histogram) AddSamples(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	s := &h.stripes[rand.Uint64()&(histStripes-1)]
	s.count.Add(n)
	s.sum.Add(v * n)
	s.buckets[bits.Len64(uint64(v))].Add(n)
	for {
		old := s.max.Load()
		if v <= old || s.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// HistogramValue is the merged view of a histogram at snapshot time.
type HistogramValue struct {
	Count, Sum, Max int64
	// Buckets[i] counts samples in [2^(i-1), 2^i); Buckets[0] counts zeros.
	Buckets [histBuckets]int64
}

// Value reads the merged histogram state.
func (h *Histogram) Value() HistogramValue {
	var out HistogramValue
	if h == nil {
		return out
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
		if m := s.max.Load(); m > out.Max {
			out.Max = m
		}
		for b := range s.buckets {
			out.Buckets[b] += s.buckets[b].Load()
		}
	}
	return out
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket where the cumulative count crosses q.
func (v HistogramValue) Quantile(q float64) int64 {
	if v.Count == 0 {
		return 0
	}
	target := int64(q * float64(v.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range v.Buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			upper := int64(1)<<uint(i) - 1
			if upper > v.Max {
				upper = v.Max
			}
			return upper
		}
	}
	return v.Max
}

// Registry is a named collection of instruments. Instruments are created on
// first lookup and live for the life of the registry; looking a name up
// again returns the same instrument, so counts survive component restarts.
// A nil *Registry hands out nil (no-op) instruments.
type Registry struct {
	mu sync.RWMutex
	instruments
	maxVec atomic.Int64 // max children per labeled vector (0 = unlimited)
}

// instruments is a registry's set of instrument maps, guarded by its mu.
// Snapshot and the /metrics writer both walk a copy taken under the lock
// (copyInstruments), reading instruments, vector children and snapshot
// functions with no registry lock held.
type instruments struct {
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	funcs       map[string]func() int64
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
}

func (r *Registry) copyInstruments() instruments {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return instruments{
		counters:    maps.Clone(r.counters),
		gauges:      maps.Clone(r.gauges),
		hists:       maps.Clone(r.hists),
		funcs:       maps.Clone(r.funcs),
		counterVecs: maps.Clone(r.counterVecs),
		gaugeVecs:   maps.Clone(r.gaugeVecs),
	}
}

// DefaultMaxVecChildren bounds each labeled vector to this many children
// unless SetMaxLabelChildren overrides it — large enough for every legitimate
// stream × format product in the repo, small enough that a misbehaving label
// source cannot grow /metrics without bound.
const DefaultMaxVecChildren = 1024

// New returns an empty registry.
func New() *Registry {
	r := &Registry{instruments: instruments{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		funcs:       make(map[string]func() int64),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
	}}
	r.maxVec.Store(DefaultMaxVecChildren)
	return r
}

// SetMaxLabelChildren bounds every labeled vector in the registry to at most
// n children (n <= 0 removes the bound). Label combinations beyond the bound
// are clamped onto a shared overflow child and counted in the
// obsv.labels.dropped counter rather than allocated, so one misbehaving
// label source cannot grow snapshots and /metrics without bound.
func (r *Registry) SetMaxLabelChildren(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	r.maxVec.Store(int64(n))
}

var defaultRegistry = New()

// Default returns the process-wide registry that DebugMux serves on /metrics
// and that components use unless given a registry of their own.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if new.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Func registers a read-only gauge computed at snapshot time (queue depths,
// cache sizes). Registering the same name again replaces the function. The
// function is called without registry locks held, so it may take its own.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Scope is a name-prefixed view of a registry: Scope("dcg").Counter("hits")
// is Registry.Counter("dcg.hits").
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a view that prefixes every instrument name with prefix+".".
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix + "."} }

// Counter returns the scoped counter.
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + name) }

// Gauge returns the scoped gauge.
func (s Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.prefix + name) }

// Histogram returns the scoped histogram.
func (s Scope) Histogram(name string) *Histogram { return s.r.Histogram(s.prefix + name) }

// Func registers a scoped snapshot-time gauge.
func (s Scope) Func(name string, fn func() int64) { s.r.Func(s.prefix+name, fn) }

// Snapshot returns a point-in-time flattened view of every instrument.
// Counters and gauges appear under their names; a histogram named h expands
// to h.count, h.sum, h.max, h.p50, h.p95 and h.p99; snapshot functions appear
// under their names. Labeled counters and gauges appear once per child
// under name{k="v",...} keys. Functions are evaluated with no registry locks
// held.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return map[string]int64{}
	}
	in := r.copyInstruments()
	out := make(map[string]int64, len(in.counters)+len(in.gauges)+6*len(in.hists)+len(in.funcs))
	for n, c := range in.counters {
		out[n] = c.Load()
	}
	for n, g := range in.gauges {
		out[n] = g.Load()
	}
	for n, h := range in.hists {
		v := h.Value()
		out[n+".count"] = v.Count
		out[n+".sum"] = v.Sum
		out[n+".max"] = v.Max
		out[n+".p50"] = v.Quantile(0.50)
		out[n+".p95"] = v.Quantile(0.95)
		out[n+".p99"] = v.Quantile(0.99)
	}
	for n, v := range in.counterVecs {
		for _, c := range v.v.children() {
			out[n+c.labels.String()] = c.inst.Load()
		}
	}
	for n, v := range in.gaugeVecs {
		for _, c := range v.v.children() {
			out[n+c.labels.String()] = c.inst.Load()
		}
	}
	for n, f := range in.funcs {
		out[n] = f()
	}
	return out
}

// Delta returns after-minus-before for every key in after. Keys missing from
// before count from zero; gauge-style keys can go negative.
func Delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for n, v := range after {
		out[n] = v - before[n]
	}
	return out
}
