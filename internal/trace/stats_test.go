package trace

import (
	"testing"
	"time"
)

func mkTrace(n byte) TraceID { return TraceID{0: n, 15: 1} }
func mkSpan(n byte) SpanID   { return SpanID{0: n, 7: 1} }

func TestSelfTimesSubtractsChildren(t *testing.T) {
	tr := mkTrace(1)
	root, enc, route, conv := mkSpan(1), mkSpan(2), mkSpan(3), mkSpan(4)
	spans := []Span{
		// pub.publish (100µs) parents pbio.encode (30µs): publish self = 70µs.
		{Trace: tr, ID: root, Name: "pub.publish", Dur: 100 * time.Microsecond},
		{Trace: tr, ID: enc, Parent: root, Name: "pbio.encode", Dur: 30 * time.Microsecond},
		// broker.route (50µs) parents dcg.convert (20µs): route self = 30µs.
		{Trace: tr, ID: route, Parent: root, Name: "broker.route", Dur: 50 * time.Microsecond},
		{Trace: tr, ID: conv, Parent: route, Name: "dcg.convert", Dur: 20 * time.Microsecond},
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		"pub.publish":  100*time.Microsecond - 30*time.Microsecond - 50*time.Microsecond,
		"pbio.encode":  30 * time.Microsecond,
		"broker.route": 30 * time.Microsecond,
		"dcg.convert":  20 * time.Microsecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("SelfTimes[%s] = %v, want %v", name, self[name], d)
		}
	}
	// Self times of a fully-recorded tree sum to the root's inclusive time.
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100*time.Microsecond {
		t.Errorf("self times sum to %v, want 100µs", sum)
	}
}

func TestSelfTimesSameSpanIDAcrossTraces(t *testing.T) {
	// The same SpanID in two different traces must not alias: only the child
	// in trace A subtracts from the parent in trace A.
	id, child := mkSpan(9), mkSpan(10)
	spans := []Span{
		{Trace: mkTrace(1), ID: id, Name: "pub.publish", Dur: 10 * time.Millisecond},
		{Trace: mkTrace(1), ID: child, Parent: id, Name: "pbio.encode", Dur: 4 * time.Millisecond},
		{Trace: mkTrace(2), ID: id, Name: "pub.publish", Dur: 10 * time.Millisecond},
	}
	self := SelfTimes(spans)
	if got := self["pub.publish"]; got != 16*time.Millisecond {
		t.Errorf("pub.publish self = %v, want 16ms (6ms + 10ms)", got)
	}
}

func TestSelfTimesClampAndOrphans(t *testing.T) {
	tr := mkTrace(3)
	root, c1, c2 := mkSpan(1), mkSpan(2), mkSpan(3)
	spans := []Span{
		// Children report more time than the parent (clock jitter): parent
		// self time clamps to zero instead of going negative.
		{Trace: tr, ID: root, Name: "broker.route", Dur: 5 * time.Microsecond},
		{Trace: tr, ID: c1, Parent: root, Name: "dcg.convert", Dur: 4 * time.Microsecond},
		{Trace: tr, ID: c2, Parent: root, Name: "dcg.convert", Dur: 4 * time.Microsecond},
		// Orphan whose parent was overwritten in the ring: counts for itself.
		{Trace: tr, ID: mkSpan(4), Parent: mkSpan(99), Name: "pbio.decode", Dur: 7 * time.Microsecond},
	}
	self := SelfTimes(spans)
	if self["broker.route"] != 0 {
		t.Errorf("over-subscribed parent self = %v, want 0", self["broker.route"])
	}
	if self["dcg.convert"] != 8*time.Microsecond {
		t.Errorf("dcg.convert self = %v, want 8µs", self["dcg.convert"])
	}
	if self["pbio.decode"] != 7*time.Microsecond {
		t.Errorf("orphan self = %v, want 7µs", self["pbio.decode"])
	}
	if SelfTimes(nil) != nil {
		t.Error("SelfTimes(nil) must return nil")
	}
}
