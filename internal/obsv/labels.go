package obsv

import (
	"sort"
	"strings"
	"sync"
)

// Label is one key="value" pair attached to a labeled instrument.
type Label struct {
	Key, Value string
}

// LabelSet is an ordered list of labels. Order follows the vector's declared
// key order, so two children of the same vector always render their labels
// identically.
type LabelSet []Label

// String renders the set in the snapshot/Prometheus form {k="v",k2="v2"}
// (empty string for an empty set).
func (ls LabelSet) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escaping rules to a
// label value (backslash, double quote and newline).
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// vecKeySep joins child label values into a map key; it cannot appear in
// sane label values, and a collision would only merge two children's counts.
const vecKeySep = "\x1f"

// overflowLabel is the label value of the shared clamp child a vector hands
// out once it reaches the registry's max-children bound.
const overflowLabel = "overflow"

// DroppedLabelsCounter is the counter (created lazily on first drop) that
// counts label combinations clamped onto a vector's overflow child.
const DroppedLabelsCounter = "obsv.labels.dropped"

// vec is the shared child-management core of the two vector kinds. reg
// points back at the owning registry for the cardinality bound and the
// labels-dropped counter.
type vec[T any] struct {
	name     string
	keys     []string
	reg      *Registry
	mu       sync.RWMutex
	m        map[string]*vecChild[T]
	overflow *vecChild[T]
}

type vecChild[T any] struct {
	labels LabelSet
	inst   *T
}

func newVec[T any](reg *Registry, name string, keys []string) *vec[T] {
	return &vec[T]{name: name, keys: keys, reg: reg, m: make(map[string]*vecChild[T])}
}

// with resolves (creating if new) the child for the given label values.
// Missing values are filled with ""; extra values are ignored. Once the vec
// holds the registry's max children, unseen label combinations share one
// overflow child (every label value "overflow") and bump obsv.labels.dropped
// instead of growing the map.
func (v *vec[T]) with(values []string) *T {
	key := strings.Join(values, vecKeySep)
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c != nil {
		return c.inst
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[key]; c == nil {
		if max := v.reg.maxVec.Load(); max > 0 && int64(len(v.m)) >= max {
			if v.overflow == nil {
				ls := make(LabelSet, len(v.keys))
				for i, k := range v.keys {
					ls[i] = Label{Key: k, Value: overflowLabel}
				}
				v.overflow = &vecChild[T]{labels: ls, inst: new(T)}
			}
			v.reg.Counter(DroppedLabelsCounter).Inc()
			return v.overflow.inst
		}
		ls := make(LabelSet, len(v.keys))
		for i, k := range v.keys {
			ls[i].Key = k
			if i < len(values) {
				ls[i].Value = values[i]
			}
		}
		c = &vecChild[T]{labels: ls, inst: new(T)}
		v.m[key] = c
	}
	return c.inst
}

// children returns a stable copy of the child list (including the overflow
// child once clamping has begun) sorted by rendered labels.
func (v *vec[T]) children() []*vecChild[T] {
	v.mu.RLock()
	out := make([]*vecChild[T], 0, len(v.m)+1)
	for _, c := range v.m {
		out = append(out, c)
	}
	if v.overflow != nil {
		out = append(out, v.overflow)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return out[i].labels.String() < out[j].labels.String()
	})
	return out
}

// CounterVec is a family of counters that share a name and differ by label
// values — the per-format × per-stream wire accounting instrument. Resolve
// children once with With and hold the *Counter; With itself takes a lock
// and may allocate, the child does not. A nil *CounterVec hands out nil
// (no-op) counters.
type CounterVec struct {
	v *vec[Counter]
}

// With returns the counter for the given label values (in the vector's
// declared key order).
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.with(values)
}

// GaugeVec is a family of gauges sharing a name. A nil *GaugeVec hands out
// nil gauges.
type GaugeVec struct {
	v *vec[Gauge]
}

// With returns the gauge for the given label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.v.with(values)
}

// CounterVec returns the labeled counter family registered under name,
// creating it with the given label keys if new. Looking the name up again
// returns the same family (the original key declaration wins).
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	cv := r.counterVecs[name]
	r.mu.RUnlock()
	if cv != nil {
		return cv
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cv = r.counterVecs[name]; cv == nil {
		cv = &CounterVec{v: newVec[Counter](r, name, keys)}
		r.counterVecs[name] = cv
	}
	return cv
}

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	gv := r.gaugeVecs[name]
	r.mu.RUnlock()
	if gv != nil {
		return gv
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if gv = r.gaugeVecs[name]; gv == nil {
		gv = &GaugeVec{v: newVec[Gauge](r, name, keys)}
		r.gaugeVecs[name] = gv
	}
	return gv
}

// CounterVec returns the scoped labeled counter family.
func (s Scope) CounterVec(name string, keys ...string) *CounterVec {
	return s.r.CounterVec(s.prefix+name, keys...)
}

// GaugeVec returns the scoped labeled gauge family.
func (s Scope) GaugeVec(name string, keys ...string) *GaugeVec {
	return s.r.GaugeVec(s.prefix+name, keys...)
}
