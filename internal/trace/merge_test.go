package trace

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// tspan builds a test span with deterministic IDs: trace t, span s, parent p
// (0 = root), started at base+startMS lasting durMS.
func tspan(t, s, p uint64, name, instance string, startMS, durMS int64) TaggedSpan {
	var sp TaggedSpan
	sp.Trace = mkTraceID(t)
	sp.ID = mkSpanID(s)
	if p != 0 {
		sp.Parent = mkSpanID(p)
	}
	sp.Name = name
	sp.Instance = instance
	sp.Start = time.Unix(100, 0).Add(time.Duration(startMS) * time.Millisecond)
	sp.Dur = time.Duration(durMS) * time.Millisecond
	return sp
}

func mkTraceID(v uint64) TraceID {
	var id TraceID
	for i := 0; i < 8; i++ {
		id[i] = byte(v >> (8 * uint(i)))
	}
	return id
}

func mkSpanID(v uint64) SpanID {
	var id SpanID
	for i := range id {
		id[i] = byte(v >> (8 * uint(i)))
	}
	return id
}

func TestMergeSpansDedups(t *testing.T) {
	a := tspan(1, 1, 0, "pub.publish", "pub", 0, 10)
	b := tspan(1, 2, 1, "broker.route", "broker", 2, 5)
	merged := MergeSpans(
		[]TaggedSpan{a, b},
		[]TaggedSpan{b, a}, // overlapping second scrape of the same rings
	)
	if len(merged) != 2 {
		t.Fatalf("merged %d spans, want 2 (duplicates dropped): %+v", len(merged), merged)
	}
	if !merged[0].Start.Before(merged[1].Start) {
		t.Fatalf("merged spans not ordered by start: %+v", merged)
	}
}

func TestAssembleCrossInstanceTree(t *testing.T) {
	// publisher -> broker -> subscriber, each on its own instance, with the
	// broker's clock 1s ahead and the subscriber's 2s behind the publisher's.
	const brokerSkew, subSkew = int64(1000), int64(-2000)
	spans := []TaggedSpan{
		tspan(7, 1, 0, "pub.publish", "pub", 0, 100),
		tspan(7, 2, 1, "pbio.encode", "pub", 5, 20),
		tspan(7, 3, 1, "broker.route", "broker", 40+brokerSkew, 30),
		tspan(7, 4, 3, "pbio.decode", "sub", 50+subSkew, 10),
	}
	asm := Assemble(mkTraceID(7), spans)
	if asm.Spans != 4 || len(asm.Roots) != 1 {
		t.Fatalf("spans=%d roots=%d, want 4 spans, 1 root", asm.Spans, len(asm.Roots))
	}
	if asm.Orphans != 0 {
		t.Fatalf("orphans=%d, want 0", asm.Orphans)
	}
	root := asm.Roots[0]
	if root.Name != "pub.publish" || len(root.Children) != 2 {
		t.Fatalf("root %q with %d children, want pub.publish with 2", root.Name, len(root.Children))
	}
	var route *Node
	for _, c := range root.Children {
		if c.Name == "broker.route" {
			route = c
		}
	}
	if route == nil || len(route.Children) != 1 || route.Children[0].Name != "pbio.decode" {
		t.Fatalf("broker.route must parent pbio.decode: %+v", route)
	}
	if got, want := asm.Instances, []string{"broker", "pub", "sub"}; len(got) != 3 ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("instances = %v, want %v", got, want)
	}
	if asm.Reference != "pub" {
		t.Fatalf("reference = %q, want pub (root's instance)", asm.Reference)
	}

	// Skew estimates: offsets translate each instance onto the publisher's
	// clock, so broker ≈ -1s and sub ≈ +2s, within the overlap uncertainty.
	bySkew := map[string]InstanceSkew{}
	for _, sk := range asm.Skew {
		bySkew[sk.Instance] = sk
	}
	checkSkew := func(inst string, wantMS int64) {
		t.Helper()
		sk := bySkew[inst]
		if sk.Edges == 0 {
			t.Fatalf("%s: no skew edges, want an estimate", inst)
		}
		got := sk.Offset.Milliseconds()
		tol := sk.Uncertainty.Milliseconds() + 1
		if got < wantMS-tol || got > wantMS+tol {
			t.Fatalf("%s offset = %dms ±%dms, want %dms", inst, got, tol, wantMS)
		}
	}
	checkSkew("broker", -brokerSkew)
	// sub anchors through broker: offsets compose pub<-broker<-sub.
	checkSkew("sub", -subSkew)
	if sk := bySkew["pub"]; sk.Offset != 0 || sk.Edges != 0 {
		t.Fatalf("reference instance must have zero offset: %+v", sk)
	}
}

func TestAssembleOrphanPromotedToRoot(t *testing.T) {
	spans := []TaggedSpan{
		// parent span 1 never scraped: 2 is an orphan, but its child 3 must
		// still hang off it.
		tspan(9, 2, 1, "broker.route", "broker", 10, 30),
		tspan(9, 3, 2, "pbio.decode", "sub", 15, 10),
		// unrelated trace filtered out
		tspan(8, 9, 0, "noise", "x", 0, 5),
	}
	asm := Assemble(mkTraceID(9), spans)
	if asm.Spans != 2 || asm.Orphans != 1 || len(asm.Roots) != 1 {
		t.Fatalf("spans=%d orphans=%d roots=%d, want 2/1/1", asm.Spans, asm.Orphans, len(asm.Roots))
	}
	r := asm.Roots[0]
	if !r.Orphan || r.Name != "broker.route" || len(r.Children) != 1 {
		t.Fatalf("orphan root wrong: %+v", r)
	}
	var visited int
	asm.Walk(func(n *Node, depth int) {
		visited++
		if n.Name == "pbio.decode" && depth != 1 {
			t.Fatalf("pbio.decode at depth %d, want 1", depth)
		}
	})
	if visited != 2 {
		t.Fatalf("walk visited %d nodes, want 2", visited)
	}
}

func TestSelfTimesMissingParentTreatedAsRoot(t *testing.T) {
	// A child whose parent lives in another process contributes its full
	// self time (minus its own children), exactly as a root would.
	spans := []Span{
		tspan(3, 2, 1, "broker.route", "broker", 0, 40).Span, // parent 1 absent
		tspan(3, 3, 2, "dcg.convert", "broker", 5, 10).Span,
	}
	st := SelfTimes(spans)
	if got := st["broker.route"]; got != 30*time.Millisecond {
		t.Fatalf("broker.route self = %v, want 30ms (40 - child 10)", got)
	}
	if got := st["dcg.convert"]; got != 10*time.Millisecond {
		t.Fatalf("dcg.convert self = %v, want 10ms", got)
	}
}

func TestSelfTimesDuplicateSpansCollapse(t *testing.T) {
	parent := tspan(4, 1, 0, "pub.publish", "pub", 0, 100).Span
	child := tspan(4, 2, 1, "pbio.encode", "pub", 5, 30).Span
	clean := SelfTimes([]Span{parent, child})
	dirty := SelfTimes([]Span{parent, child, child, parent, child})
	for name, want := range clean {
		if got := dirty[name]; got != want {
			t.Fatalf("%s: duplicated merge gives %v, dedup'd gives %v", name, got, want)
		}
	}
	if got := dirty["pub.publish"]; got != 70*time.Millisecond {
		t.Fatalf("pub.publish self = %v, want 70ms (100 - one child's 30)", got)
	}
}

func TestSelfTimesSelfParentedSpan(t *testing.T) {
	sp := tspan(5, 6, 6, "weird", "x", 0, 20).Span // parent == own ID
	if got := SelfTimes([]Span{sp})["weird"]; got != 20*time.Millisecond {
		t.Fatalf("self-parented span self = %v, want 20ms", got)
	}
}

// TestHandlerFullScrape checks the /debug/trace body: every span in the
// ring, the server clock in now_unix_ns and the lifetime recorded count.
func TestHandlerFullScrape(t *testing.T) {
	tr := NewTracer(16)
	tr.SetSampling(1)
	for i := 0; i < 3; i++ {
		c := tr.Start("stage")
		c.Finish()
	}
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	var body struct {
		NowUnixNS int64             `json:"now_unix_ns"`
		Recorded  int64             `json:"recorded"`
		Spans     []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if body.NowUnixNS == 0 {
		t.Fatal("now_unix_ns missing")
	}
	if len(body.Spans) != 3 || body.Recorded != 3 {
		t.Fatalf("full scrape: %d spans, recorded %d, want 3/3", len(body.Spans), body.Recorded)
	}
}
