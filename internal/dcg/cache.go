package dcg

import (
	"sync"
	"time"

	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// Cache memoizes compiled plans per (source, destination) format pair, the
// way PBIO caches its generated conversion routines: the first record of a
// new pairing pays the compilation cost, every later record reuses the
// program. Cache is safe for concurrent use.
//
// A cache can be bounded with WithMaxEntries, in which case the oldest
// pairing is evicted (FIFO) when a new one would exceed the bound — long-
// running brokers that see an unbounded stream of format pairs stay at a
// fixed memory footprint and merely pay recompilation for evicted pairs.
type Cache struct {
	mu    sync.RWMutex // guards plans and order
	plans map[pairKey]*Plan
	order []pairKey // insertion order, drives FIFO eviction
	max   int       // 0 = unbounded

	obs cacheMetrics
}

type pairKey struct {
	src pbio.FormatID
	dst pbio.FormatID
}

// cacheMetrics bundles the cache's instruments; zero value is no-op.
type cacheMetrics struct {
	hits      *obsv.Counter
	misses    *obsv.Counter
	evictions *obsv.Counter
	compileNS *obsv.Histogram
}

func newCacheMetrics(r *obsv.Registry) cacheMetrics {
	s := r.Scope("dcg")
	return cacheMetrics{
		hits:      s.Counter("plan_cache.hits"),
		misses:    s.Counter("plan_cache.misses"),
		evictions: s.Counter("plan_cache.evictions"),
		compileNS: s.Histogram("plan.compile_ns"),
	}
}

// Package-level instruments on the default registry, created at init so the
// dcg.* metric names exist (zero-valued) from process start.
var (
	defaultCacheMetrics = newCacheMetrics(obsv.Default())
	conversions         = obsv.Default().Counter("dcg.conversions")

	// convertNS times traced conversions (Plan.AppendConvertCtx), stamping the
	// TraceID onto the bucket as its exemplar. The untraced Convert hot path
	// stays untimed, like the other codec microbenchmark subjects.
	convertNS = obsv.Default().Histogram("dcg.convert_ns")
)

// CacheOption configures a Cache.
type CacheOption func(*Cache)

// WithMaxEntries bounds the cache to n memoized plans (0 = unbounded, the
// default). When full, the oldest pairing is evicted.
func WithMaxEntries(n int) CacheOption {
	return func(c *Cache) { c.max = n }
}

// WithObserver directs the cache's hit/miss/eviction counters and the
// plan-compilation-time histogram into r instead of the default registry.
func WithObserver(r *obsv.Registry) CacheOption {
	return func(c *Cache) { c.obs = newCacheMetrics(r) }
}

// NewCache returns an empty plan cache.
func NewCache(opts ...CacheOption) *Cache {
	c := &Cache{
		plans: make(map[pairKey]*Plan),
		obs:   defaultCacheMetrics,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Plan returns the compiled plan from src to dst, compiling and memoizing it
// on first use.
func (c *Cache) Plan(src, dst *pbio.Format) (*Plan, error) {
	return c.PlanCtx(trace.Ctx{}, src, dst)
}

// PlanCtx is Plan with tracing: when the lookup misses and tc is sampled,
// the compilation is recorded as a dcg.compile child span (cache hits record
// nothing — they are the fast path the span exists to contrast against).
func (c *Cache) PlanCtx(tc trace.Ctx, src, dst *pbio.Format) (*Plan, error) {
	key := pairKey{src.ID, dst.ID}
	c.mu.RLock()
	p, ok := c.plans[key]
	c.mu.RUnlock()
	if ok {
		c.obs.hits.Add(1)
		return p, nil
	}
	c.obs.misses.Add(1)
	sp := tc.Child(trace.KindCompile)
	start := time.Now()
	p, err := Compile(src, dst)
	if err != nil {
		return nil, err
	}
	c.obs.compileNS.Observe(time.Since(start).Nanoseconds())
	sp.Finish(src.Name + "->" + dst.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.plans[key]; ok {
		return prev, nil
	}
	c.plans[key] = p
	c.order = append(c.order, key)
	for c.max > 0 && len(c.plans) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.plans, oldest)
		c.obs.evictions.Add(1)
	}
	return p, nil
}

// Len reports the number of memoized plans.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// Stats reports the cache's cumulative hit/miss/eviction counts. Note that
// caches sharing a registry (all caches built without WithObserver share the
// default registry) share these counters.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	return c.obs.hits.Load(), c.obs.misses.Load(), c.obs.evictions.Load()
}
