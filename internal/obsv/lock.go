package obsv

import (
	"sort"
	"sync"
	"time"
)

// Tracked locks: drop-in sync.Mutex / sync.RWMutex replacements whose
// acquisition wait time and critical-section hold time land in the registry's
// striped histograms. The fast path is allocation-free — two time.Now calls
// and two histogram observations around the underlying lock — so a tracked
// lock can sit on a hot path (Broker.mu, the dcg plan cache) permanently
// rather than only during debugging sessions. Each tracked lock also
// registers itself in the owning Registry's lock table so /debug/contention
// can serve a named wait/hold snapshot per lock (see contention.go).

// TrackedMutex is a sync.Mutex that records wait time (Lock entry → lock
// acquired) into <scope>.<name>.wait_ns and hold time (acquired → Unlock)
// into <scope>.<name>.hold_ns. The zero value is a plain untracked mutex.
type TrackedMutex struct {
	mu   sync.Mutex
	wait *Histogram
	hold *Histogram
	// lockedAt is owned by the lock holder: written after acquisition, read
	// before release, never touched without the mutex held.
	lockedAt time.Time
}

// NewTrackedMutex returns a mutex whose wait/hold histograms are registered
// under s as <name>.wait_ns and <name>.hold_ns, and which appears in the
// registry's LockSnapshots under the scoped name.
func NewTrackedMutex(name string, s Scope) *TrackedMutex {
	m := &TrackedMutex{
		wait: s.Histogram(name + ".wait_ns"),
		hold: s.Histogram(name + ".hold_ns"),
	}
	s.registerLock(name, m.wait, m.hold, nil)
	return m
}

// Lock acquires the mutex, recording the wait.
func (m *TrackedMutex) Lock() {
	if m.wait == nil { // zero value: behave like sync.Mutex
		m.mu.Lock()
		return
	}
	start := time.Now()
	m.mu.Lock()
	now := time.Now()
	m.wait.Observe(now.Sub(start).Nanoseconds())
	m.lockedAt = now
}

// LockExemplar is Lock with a trace exemplar: the wait observation stamps tid
// onto its histogram bucket, so a long lock wait in /stats?exemplars=1 links
// back to the publish trace that suffered it. A zero tid records plainly.
func (m *TrackedMutex) LockExemplar(tid [16]byte) {
	if m.wait == nil {
		m.mu.Lock()
		return
	}
	start := time.Now()
	m.mu.Lock()
	now := time.Now()
	m.wait.ObserveExemplar(now.Sub(start).Nanoseconds(), tid)
	m.lockedAt = now
}

// Unlock releases the mutex, recording the hold time.
func (m *TrackedMutex) Unlock() {
	if m.wait == nil {
		m.mu.Unlock()
		return
	}
	held := time.Since(m.lockedAt).Nanoseconds()
	m.mu.Unlock()
	m.hold.Observe(held)
}

// TrackedRWMutex is a sync.RWMutex recording writer wait into
// <name>.wait_ns, writer hold into <name>.hold_ns, and reader wait into
// <name>.rwait_ns. Reader hold time is not tracked: concurrent readers would
// need per-reader state to time their critical sections, and reader *wait* is
// the contention signal (readers only wait when a writer is in or queued).
// The zero value is a plain untracked RWMutex.
type TrackedRWMutex struct {
	mu       sync.RWMutex
	wait     *Histogram
	hold     *Histogram
	rwait    *Histogram
	lockedAt time.Time // owned by the writer, like TrackedMutex.lockedAt
}

// NewTrackedRWMutex returns an RWMutex registered under s as <name>.wait_ns,
// <name>.hold_ns and <name>.rwait_ns, listed in the registry's LockSnapshots.
func NewTrackedRWMutex(name string, s Scope) *TrackedRWMutex {
	m := &TrackedRWMutex{
		wait:  s.Histogram(name + ".wait_ns"),
		hold:  s.Histogram(name + ".hold_ns"),
		rwait: s.Histogram(name + ".rwait_ns"),
	}
	s.registerLock(name, m.wait, m.hold, m.rwait)
	return m
}

// Lock acquires the write lock, recording the writer wait.
func (m *TrackedRWMutex) Lock() {
	if m.wait == nil {
		m.mu.Lock()
		return
	}
	start := time.Now()
	m.mu.Lock()
	now := time.Now()
	m.wait.Observe(now.Sub(start).Nanoseconds())
	m.lockedAt = now
}

// Unlock releases the write lock, recording the writer hold time.
func (m *TrackedRWMutex) Unlock() {
	if m.wait == nil {
		m.mu.Unlock()
		return
	}
	held := time.Since(m.lockedAt).Nanoseconds()
	m.mu.Unlock()
	m.hold.Observe(held)
}

// RLock acquires the read lock, recording the reader wait.
func (m *TrackedRWMutex) RLock() {
	if m.rwait == nil {
		m.mu.RLock()
		return
	}
	start := time.Now()
	m.mu.RLock()
	m.rwait.Observe(time.Since(start).Nanoseconds())
}

// RUnlock releases the read lock.
func (m *TrackedRWMutex) RUnlock() { m.mu.RUnlock() }

// lockFamily groups the histograms behind one named tracked lock so the
// contention endpoint can snapshot them by lock rather than by raw metric.
type lockFamily struct {
	wait, hold, rwait *Histogram
}

// registerLock records a tracked lock's histograms in the registry's lock
// table under the scoped name. Re-registering a name is a no-op: the first
// lock's histograms already are the registry's histograms for those names,
// so a second lock constructed with the same name shares them.
func (s Scope) registerLock(name string, wait, hold, rwait *Histogram) {
	r := s.r
	if r == nil {
		return
	}
	full := s.prefix + name
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.locks == nil {
		r.locks = make(map[string]*lockFamily)
	}
	if _, ok := r.locks[full]; !ok {
		r.locks[full] = &lockFamily{wait: wait, hold: hold, rwait: rwait}
	}
}

// LockStat is one histogram of a tracked lock, expanded for JSON.
type LockStat struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
}

func lockStat(h *Histogram) LockStat {
	v := h.Value()
	return LockStat{
		Count: v.Count,
		SumNS: v.Sum,
		MaxNS: v.Max,
		P50NS: v.Quantile(0.50),
		P95NS: v.Quantile(0.95),
		P99NS: v.Quantile(0.99),
	}
}

// LockSnapshot is the point-in-time state of one tracked lock.
type LockSnapshot struct {
	Name string   `json:"name"`
	Wait LockStat `json:"wait"`
	Hold LockStat `json:"hold"`
	// RWait is the reader-wait distribution; nil for plain mutexes.
	RWait *LockStat `json:"rwait,omitempty"`
}

// LockSnapshots returns every tracked lock registered in r, sorted by name.
func (r *Registry) LockSnapshots() []LockSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make(map[string]*lockFamily, len(r.locks))
	for name, f := range r.locks {
		fams[name] = f
	}
	r.mu.RUnlock()

	out := make([]LockSnapshot, 0, len(fams))
	for name, f := range fams {
		snap := LockSnapshot{Name: name, Wait: lockStat(f.wait), Hold: lockStat(f.hold)}
		if f.rwait != nil {
			rs := lockStat(f.rwait)
			snap.RWait = &rs
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
