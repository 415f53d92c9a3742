package trace

import (
	"sort"
	"time"
)

// This file is the cross-process half of the tracing layer: spans read out
// of several processes' /debug/trace rings ("fragments") are deduplicated,
// attributed to the instance they came from, and stitched back into one
// parent-linked tree. It is pure data assembly, so it is directly testable
// with hand-built fragments; the root TestTraceAssemblyAcrossProcesses runs
// it over three live debug listeners.

// TaggedSpan is a completed span attributed to the instance whose ring it was
// read from.
type TaggedSpan struct {
	Span
	Instance string
}

// Tag attributes a snapshot of spans to one instance.
func Tag(instance string, spans []Span) []TaggedSpan {
	out := make([]TaggedSpan, len(spans))
	for i, sp := range spans {
		out[i] = TaggedSpan{Span: sp, Instance: instance}
	}
	return out
}

// MergeSpans concatenates span fragments and drops duplicates: overlapping
// scrapes of the same ring return the same completed span twice, and a span
// must count exactly once when the merged set is aggregated or assembled.
// Identity is (TraceID, SpanID); the first occurrence wins. The result is
// ordered by start time.
func MergeSpans(frags ...[]TaggedSpan) []TaggedSpan {
	total := 0
	for _, f := range frags {
		total += len(f)
	}
	seen := make(map[spanKey]bool, total)
	out := make([]TaggedSpan, 0, total)
	for _, f := range frags {
		for _, sp := range f {
			k := spanKey{sp.Trace, sp.ID}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, sp)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Node is one span in an assembled cross-process trace tree.
type Node struct {
	TaggedSpan
	Children []*Node
	// Orphan marks a span whose Parent ID is set but was never read: either
	// the parent process's ring was not read or it already overwrote the
	// parent. Orphans are treated as roots so their
	// subtree still renders and their self time still counts.
	Orphan bool
}

// InstanceSkew is the estimated clock offset of one instance relative to the
// assembly's reference instance (the instance that recorded the root span).
type InstanceSkew struct {
	Instance string
	// Offset is the duration to add to the instance's timestamps to express
	// them on the reference instance's clock.
	Offset time.Duration
	// Uncertainty is half the width of the tightest parent/child overlap
	// interval that produced the estimate — the offset is only known to
	// ±Uncertainty even with perfectly measured spans.
	Uncertainty time.Duration
	// Edges is how many cross-instance parent-child pairs informed the
	// estimate (0 for the reference instance itself and for instances that
	// could not be anchored, whose Offset is then reported as 0).
	Edges int
}

// Assembly is one TraceID's spans from every process read, stitched into
// parent-linked trees.
type Assembly struct {
	Trace     TraceID
	Roots     []*Node // true roots first, then orphans promoted to roots
	Spans     int
	Orphans   int
	Instances []string // sorted, every instance contributing a span
	Reference string   // instance whose clock anchors the skew estimates
	Skew      []InstanceSkew
}

// Assemble stitches the merged spans of one trace into parent-linked trees,
// promoting spans with missing parents to roots and estimating per-instance
// clock skew from cross-instance parent/child overlap. The input may contain
// duplicates and spans of other traces; both are filtered out.
func Assemble(id TraceID, spans []TaggedSpan) *Assembly {
	asm := &Assembly{Trace: id}
	var own []TaggedSpan
	for _, sp := range MergeSpans(spans) {
		if sp.Trace == id {
			own = append(own, sp)
		}
	}
	if len(own) == 0 {
		return asm
	}

	nodes := make(map[SpanID]*Node, len(own))
	for _, sp := range own {
		nodes[sp.ID] = &Node{TaggedSpan: sp}
	}
	instances := map[string]bool{}
	for _, sp := range own {
		instances[sp.Instance] = true
		n := nodes[sp.ID]
		switch {
		case sp.Parent.IsZero():
			asm.Roots = append(asm.Roots, n)
		case nodes[sp.Parent] == nil || sp.Parent == sp.ID:
			n.Orphan = true
			asm.Orphans++
			asm.Roots = append(asm.Roots, n)
		default:
			p := nodes[sp.Parent]
			p.Children = append(p.Children, n)
		}
	}
	// Deterministic order everywhere: children by start time, roots with the
	// true roots (earliest first) ahead of orphans.
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Start.Before(n.Children[j].Start)
		})
	}
	sort.SliceStable(asm.Roots, func(i, j int) bool {
		if asm.Roots[i].Orphan != asm.Roots[j].Orphan {
			return !asm.Roots[i].Orphan
		}
		return asm.Roots[i].Start.Before(asm.Roots[j].Start)
	})
	asm.Spans = len(own)
	for inst := range instances {
		asm.Instances = append(asm.Instances, inst)
	}
	sort.Strings(asm.Instances)
	if len(asm.Roots) > 0 {
		asm.Reference = asm.Roots[0].Instance
	}
	asm.Skew = estimateSkew(asm.Reference, asm.Instances, nodes)
	return asm
}

// skewEdge is one cross-instance parent/child constraint: translating the
// child instance's clock onto the parent instance's requires an offset inside
// [lo, hi] for the child span to nest within its parent.
type skewEdge struct {
	parent, child string
	lo, hi        time.Duration
}

// estimateSkew estimates each instance's clock offset relative to the
// reference instance. Every cross-instance parent/child pair bounds the
// pairwise offset: the child started after its parent did and finished before
// its parent did (true on one clock, since the parent's stage encloses the
// network round trip), so
//
//	parent.Start - child.Start <= offset <= parent.End - child.End
//
// on the parent's clock. The midpoint of each edge's interval is averaged per
// instance pair, then offsets propagate breadth-first from the reference
// instance across the instance graph. Instances unreachable from the
// reference report offset 0 with Edges == 0.
func estimateSkew(reference string, instances []string, nodes map[SpanID]*Node) []InstanceSkew {
	if reference == "" {
		return nil
	}
	var edges []skewEdge
	for _, n := range nodes {
		for _, c := range n.Children {
			if c.Instance == n.Instance {
				continue
			}
			lo := n.Start.Sub(c.Start)
			hi := n.Start.Add(n.Dur).Sub(c.Start.Add(c.Dur))
			if hi < lo { // child measured longer than parent; keep the midpoint meaningful
				lo, hi = hi, lo
			}
			edges = append(edges, skewEdge{parent: n.Instance, child: c.Instance, lo: lo, hi: hi})
		}
	}
	type pairStat struct {
		sum, width time.Duration
		n          int
	}
	pair := map[[2]string]*pairStat{}
	addEdge := func(a, b string, lo, hi time.Duration) {
		key := [2]string{a, b}
		st := pair[key]
		if st == nil {
			st = &pairStat{width: 1<<63 - 1}
			pair[key] = st
		}
		st.sum += (lo + hi) / 2
		if w := (hi - lo) / 2; w < st.width {
			st.width = w
		}
		st.n++
	}
	for _, e := range edges {
		// offset(child→parent) ∈ [lo,hi]; the reverse direction negates.
		addEdge(e.parent, e.child, e.lo, e.hi)
		addEdge(e.child, e.parent, -e.hi, -e.lo)
	}

	offset := map[string]InstanceSkew{reference: {Instance: reference}}
	queue := []string{reference}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		base := offset[cur]
		for key, st := range pair {
			if key[0] != cur {
				continue
			}
			next := key[1]
			if _, done := offset[next]; done {
				continue
			}
			offset[next] = InstanceSkew{
				Instance:    next,
				Offset:      base.Offset + st.sum/time.Duration(st.n),
				Uncertainty: base.Uncertainty + st.width,
				Edges:       st.n,
			}
			queue = append(queue, next)
		}
	}
	out := make([]InstanceSkew, 0, len(instances))
	for _, inst := range instances {
		if sk, ok := offset[inst]; ok {
			out = append(out, sk)
		} else {
			out = append(out, InstanceSkew{Instance: inst})
		}
	}
	return out
}

// Walk visits every node of the assembly depth-first, parents before
// children, calling fn with the node and its depth (roots at 0).
func (a *Assembly) Walk(fn func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		fn(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	for _, r := range a.Roots {
		rec(r, 0)
	}
}
