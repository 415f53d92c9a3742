package trace

import "time"

// spanKey identifies a span across traces: SpanIDs are only unique within
// one trace, so aggregation must key on the pair.
type spanKey struct {
	trace TraceID
	span  SpanID
}

// SelfTimes aggregates completed spans by name into each stage's total
// *self* time: a span's duration minus the duration of its recorded
// children, clamped at zero. Summing self times instead of raw durations
// keeps nested stages (broker.route parenting dcg.convert, pub.publish
// parenting pbio.encode) from double-counting, so the totals of a set of
// stage names can be normalized into a share breakdown that sums to 100%.
//
// Spans whose parent is not in the snapshot (the parent was overwritten in
// the ring, or lives in another process) are treated as roots: they
// contribute their own self time and subtract from nothing. Duplicate
// (TraceID, SpanID) entries — the same span scraped twice from one ring when
// snapshots overlap — are collapsed to a single occurrence first; without
// that, a duplicated child both counts twice and subtracts twice from its
// parent, silently skewing the stage shares the duplicates ride in on.
func SelfTimes(spans []Span) map[string]time.Duration {
	if len(spans) == 0 {
		return nil
	}
	// Per-span self time, then fold into per-name totals. index doubles as
	// the duplicate filter: the first occurrence of a (trace, span) key owns
	// the slot and later copies are ignored entirely.
	self := make([]time.Duration, 0, len(spans))
	kept := make([]Span, 0, len(spans))
	index := make(map[spanKey]int, len(spans))
	for _, sp := range spans {
		k := spanKey{sp.Trace, sp.ID}
		if _, dup := index[k]; dup {
			continue
		}
		index[k] = len(kept)
		kept = append(kept, sp)
		self = append(self, sp.Dur)
	}
	spans = kept
	for _, sp := range spans {
		if sp.Parent.IsZero() || sp.Parent == sp.ID {
			continue
		}
		if pi, ok := index[spanKey{sp.Trace, sp.Parent}]; ok {
			self[pi] -= sp.Dur
		}
	}
	totals := make(map[string]time.Duration)
	for i, sp := range spans {
		d := self[i]
		if d < 0 {
			d = 0
		}
		totals[sp.Name] += d
	}
	return totals
}
