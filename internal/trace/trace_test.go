package trace

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledTracerNeverSamples(t *testing.T) {
	tr := New(0, 8)
	c := tr.Start(KindPublish)
	if c.Sampled() {
		t.Fatal("disabled tracer sampled a root")
	}
	c.Finish("")
	if got, _ := tr.Spans(); len(got) != 0 {
		t.Fatalf("recorded %d spans while disabled", len(got))
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Recorder
	tr.SetSampling(1)
	c := tr.Start(KindPublish)
	if c.Sampled() {
		t.Fatal("nil tracer sampled a root")
	}
	c.Child(KindEncode).Finish("")
	c.Finish("")
	tr.RecordSpan(TraceID{1}, SpanID{2}, KindQueue, "", time.Now(), time.Second)
	if spans, n := tr.Spans(); spans != nil || n != 0 {
		t.Fatal("nil tracer recorded spans")
	}
}

func TestSamplingOneInN(t *testing.T) {
	tr := New(0, 1024)
	tr.SetSampling(4)
	sampled := 0
	for i := 0; i < 100; i++ {
		c := tr.Start(KindPublish)
		if c.Sampled() {
			sampled++
		}
		c.Finish("")
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 sampling recorded %d of 100", sampled)
	}
	if got, _ := tr.Spans(); len(got) != 25 {
		t.Fatalf("snapshot has %d spans, want 25", len(got))
	}
}

func TestParentLinksAndIdentity(t *testing.T) {
	tr := New(0, 16)
	tr.SetSampling(1)
	root := tr.Start(KindPublish)
	child := root.Child(KindRoute)
	grand := child.Child(KindConvert)
	grand.Finish("")
	child.Finish("d1")
	root.Finish("")

	spans, _ := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Trace != root.Trace() {
			t.Fatalf("span %s has trace %s, want %s", sp.Name, sp.Trace, root.Trace())
		}
	}
	rootSp, childSp, grandSp := byName["pub.publish"], byName["broker.route"], byName["dcg.convert"]
	if !rootSp.Parent.IsZero() {
		t.Fatal("root span has a parent")
	}
	if childSp.Parent != rootSp.ID {
		t.Fatal("child's parent is not root")
	}
	if grandSp.Parent != childSp.ID {
		t.Fatal("grandchild's parent is not child")
	}
	if childSp.Detail != "d1" {
		t.Fatalf("detail = %q, want d1", childSp.Detail)
	}
}

func TestJoinRecordsChildrenNotSelf(t *testing.T) {
	tr := New(0, 16)
	tr.SetSampling(1)
	var tid TraceID
	var parent SpanID
	tid[0], parent[0] = 1, 2

	jc := tr.Join(tid, parent)
	if !jc.Sampled() {
		t.Fatal("join on enabled tracer not sampled")
	}
	jc.Finish("") // foreign span: must not record
	ch := jc.Child(KindDecode)
	ch.Finish("")

	spans, _ := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1 (joined span itself must not record)", len(spans))
	}
	if spans[0].Trace != tid || spans[0].Parent != parent {
		t.Fatalf("joined child has trace=%s parent=%s", spans[0].Trace, spans[0].Parent)
	}

	// Disabled tracer or zero trace ID joins to the unsampled Ctx.
	tr.SetSampling(0)
	if tr.Join(tid, parent).Sampled() {
		t.Fatal("join on disabled tracer sampled")
	}
	tr.SetSampling(1)
	if tr.Join(TraceID{}, parent).Sampled() {
		t.Fatal("join on zero trace ID sampled")
	}
}

func TestRingWraparoundKeepsNewest(t *testing.T) {
	tr := New(0, 4)
	tr.SetSampling(1)
	for i := 0; i < 10; i++ {
		tr.Start(KindPublish).Finish(string(rune('a' + i)))
		time.Sleep(time.Millisecond) // distinct start times for ordering
	}
	spans, recorded := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, want := range []string{"g", "h", "i", "j"} {
		if spans[i].Detail != want {
			t.Fatalf("slot %d = %q, want %q (oldest-first, newest kept)", i, spans[i].Detail, want)
		}
	}
	if recorded != 10 {
		t.Fatalf("recorded = %d, want 10", recorded)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tr := New(0, 64)
	tr.SetSampling(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := tr.Start(KindPublish)
				c.Child(KindEncode).Finish("")
				c.Finish("")
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_, _ = tr.Spans()
		}
	}()
	wg.Wait()
	<-done
	if got, _ := tr.Spans(); len(got) != 64 {
		t.Fatalf("full ring snapshot has %d spans, want 64", len(got))
	}
}

// TestUntracedPathAllocationFree is the hot-path contract: with tracing off,
// or with a root that was not sampled, start/finish must not allocate.
func TestUntracedPathAllocationFree(t *testing.T) {
	tr := New(0, 8)

	if n := testing.AllocsPerRun(100, func() {
		c := tr.Start(KindPublish)
		c.Child(KindEncode).Finish("")
		c.Finish("")
	}); n != 0 {
		t.Fatalf("disabled tracer allocates %v per span", n)
	}

	var nilT *Recorder
	if n := testing.AllocsPerRun(100, func() {
		c := nilT.Start(KindPublish)
		c.Child(KindEncode).Finish("")
		c.Finish("")
	}); n != 0 {
		t.Fatalf("nil tracer allocates %v per span", n)
	}

	// Sampling 1-in-very-many: the unsampled roots must stay free. Burn the
	// counter far from a multiple of N first so AllocsPerRun's warmup+runs
	// never land on the sampled tick.
	tr.SetSampling(1 << 30)
	if n := testing.AllocsPerRun(100, func() {
		c := tr.Start(KindPublish)
		c.Child(KindEncode).Finish("")
		c.Finish("")
	}); n != 0 {
		t.Fatalf("unsampled root allocates %v per span", n)
	}
}

// TestSampledSpanAllocationFree: a sampled span is copied into a slot of
// the ring, so starting, finishing and recording spans allocates nothing,
// however long the detail.
func TestSampledSpanAllocationFree(t *testing.T) {
	tr := New(0, 64)
	tr.SetSampling(1)
	detail := strings.Repeat("ASDOffEvent->ASDOffEvent ", 4)
	start := time.Now()
	if n := testing.AllocsPerRun(100, func() {
		c := tr.Start(KindPublish)
		c.Child(KindEncode).Finish(detail)
		tr.RecordSpan(c.Trace(), c.Span(), KindQueue, detail, start, time.Microsecond)
		c.Finish(detail)
	}); n != 0 {
		t.Fatalf("sampled spans allocate %v per root", n)
	}
	if spans, _ := tr.Spans(); len(spans) != 64 || len(spans[0].Detail) != 64 {
		t.Fatalf("ring holds %d spans, want 64 with 64-byte details", len(spans))
	}
}

// BenchmarkSampledSpan times a sampled root span, started and finished into
// the span ring, from GOMAXPROCS goroutines at once: the cost of the ring's
// mutex where spans are recorded from several goroutines.
func BenchmarkSampledSpan(b *testing.B) {
	tr := New(0, 0)
	tr.SetSampling(1)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Start(KindPublish).Finish("flights")
		}
	})
}

func TestIDStrings(t *testing.T) {
	var tid TraceID
	var sid SpanID
	tid[0], tid[15] = 0xab, 0x01
	sid[7] = 0xff
	if got := tid.String(); got != "ab000000000000000000000000000001" {
		t.Fatalf("TraceID.String() = %q", got)
	}
	if got := sid.String(); got != "00000000000000ff" {
		t.Fatalf("SpanID.String() = %q", got)
	}
}

func TestHandlerJSONAndChrome(t *testing.T) {
	tr := New(0, 16)
	tr.SetSampling(1)
	root := tr.Start(KindPublish)
	root.Child(KindEncode).Finish("")
	root.Finish("stream-x")

	// Default JSON form.
	rec := httptest.NewRecorder()
	SpanHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var out struct {
		Spans []struct {
			Trace, Span, Parent, Name, Detail string
			StartNS                           int64 `json:"start_unix_ns"`
			DurNS                             int64 `json:"dur_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("unmarshal /debug/trace: %v", err)
	}
	if len(out.Spans) != 2 {
		t.Fatalf("got %d spans", len(out.Spans))
	}
	for _, sp := range out.Spans {
		if sp.Trace != root.Trace().String() {
			t.Fatalf("span %s trace %q, want %q", sp.Name, sp.Trace, root.Trace())
		}
		if sp.StartNS == 0 {
			t.Fatalf("span %s missing start", sp.Name)
		}
	}

	// Chrome trace_event form.
	rec = httptest.NewRecorder()
	SpanHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=chrome", nil))
	var chrome struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("unmarshal chrome export: %v", err)
	}
	if len(chrome.TraceEvents) != 2 {
		t.Fatalf("chrome export has %d events", len(chrome.TraceEvents))
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %s has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Args["trace"] != root.Trace().String() {
			t.Fatalf("event %s trace arg %q", ev.Name, ev.Args["trace"])
		}
	}
}

// TestHandlerFullScrape checks the /debug/trace body: every span in the
// ring, the server clock in now_unix_ns and the lifetime recorded count.
func TestHandlerFullScrape(t *testing.T) {
	tr := New(0, 16)
	tr.SetSampling(1)
	for i := 0; i < 3; i++ {
		c := tr.Start(KindRoute)
		c.Finish("")
	}
	rec := httptest.NewRecorder()
	SpanHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
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
