package openmeta

// Cross-process trace assembly without a collector: a publisher, a broker
// and a subscriber, each with its own registry, tracer and flight recorder
// served on its own debug listener, exactly like three processes started
// with -debug-addr. The tests read each /debug/trace ring over HTTP and
// stitch one TraceID's fragments back into a single parent-linked tree with
// trace.Tag, trace.MergeSpans and trace.Assemble; the latency exemplars on
// the OpenMetrics /metrics exposition lead to traces that assemble the same
// way.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"openmeta/internal/airline"
	"openmeta/internal/core"
	"openmeta/internal/eventbus"
	"openmeta/internal/flight"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
	"openmeta/internal/trace"
)

// debugProc is one simulated process: an isolated observability stack on a
// real debug listener.
type debugProc struct {
	name string
	reg  *obsv.Registry
	trc  *trace.Tracer
	rec  *flight.Recorder
	srv  *httptest.Server
}

func newDebugProc(t *testing.T, name string) *debugProc {
	t.Helper()
	p := &debugProc{name: name, reg: obsv.New(), trc: trace.NewTracer(0), rec: flight.New(256)}
	p.trc.SetSampling(1)
	p.srv = httptest.NewServer(obsv.DebugMuxFor(p.reg, obsv.NewHealth(), p.rec,
		obsv.DebugEndpoint{Path: "/debug/trace", Handler: trace.Handler(p.trc), Desc: "trace"}))
	t.Cleanup(p.srv.Close)
	return p
}

// spans reads the process's /debug/trace ring back into spans attributed to
// the process.
func (p *debugProc) spans(t *testing.T) []trace.TaggedSpan {
	t.Helper()
	var body struct {
		Spans []struct {
			Trace   string `json:"trace"`
			Span    string `json:"span"`
			Parent  string `json:"parent"`
			Name    string `json:"name"`
			Detail  string `json:"detail"`
			StartNS int64  `json:"start_unix_ns"`
			DurNS   int64  `json:"dur_ns"`
		} `json:"spans"`
	}
	httpJSON(t, p.srv.URL+"/debug/trace", &body)
	out := make([]trace.Span, 0, len(body.Spans))
	for _, js := range body.Spans {
		tid, ok1 := trace.ParseTraceID(js.Trace)
		sid, ok2 := trace.ParseSpanID(js.Span)
		pid, ok3 := trace.ParseSpanID(js.Parent)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("%s: unparseable span %+v", p.name, js)
		}
		out = append(out, trace.Span{
			Trace: tid, ID: sid, Parent: pid, Name: js.Name, Detail: js.Detail,
			Start: time.Unix(0, js.StartNS), Dur: time.Duration(js.DurNS),
		})
	}
	return trace.Tag(p.name, out)
}

// tracedRecords is how many records each test publishes; every publish
// starts its own trace.
const tracedRecords = 8

// processTrio is a publisher, a broker and a subscriber after tracedRecords
// traced records went from one end to the other.
type processTrio struct {
	pub, broker, sub *debugProc
}

func runProcessTrio(t *testing.T) *processTrio {
	t.Helper()
	tr := &processTrio{pub: newDebugProc(t, "pub"), broker: newDebugProc(t, "broker"), sub: newDebugProc(t, "sub")}

	// The trace context travels on the wire (the traced protocol extension),
	// so the three rings record fragments of the same TraceIDs.
	broker, err := eventbus.Listen("127.0.0.1:0",
		eventbus.WithTracer(tr.broker.trc),
		eventbus.WithObserver(tr.broker.reg),
		eventbus.WithFlightRecorder(tr.broker.rec))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { broker.Close() })

	subCtx, err := pbio.NewContext(machine.Native, pbio.WithObserver(tr.sub.reg))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eventbus.DialSubscriber(broker.Addr().String(), subCtx,
		eventbus.WithClientTracer(tr.sub.trc),
		eventbus.WithClientFlightRecorder(tr.sub.rec))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	if err := sub.Subscribe(airline.FlightStream); err != nil {
		t.Fatal(err)
	}

	pub, err := eventbus.DialPublisher(broker.Addr().String(),
		eventbus.WithClientTracer(tr.pub.trc),
		eventbus.WithClientFlightRecorder(tr.pub.rec))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })

	pubCtx, err := pbio.NewContext(machine.Native, pbio.WithObserver(tr.pub.reg))
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.RegisterDocument(pubCtx, []byte(airline.FlightSchema))
	if err != nil {
		t.Fatal(err)
	}
	format, ok := set.Lookup("ASDOffEvent")
	if !ok {
		t.Fatal("flight schema missing ASDOffEvent")
	}
	gen := airline.NewFlightGen(1)
	for i := 0; i < tracedRecords; i++ {
		if err := pub.PublishRecord(airline.FlightStream, format, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range ReceiveEvents(t, sub, tracedRecords, nil) {
		if _, err := ev.Decode(); err != nil { // decode records the pbio.decode span
			t.Fatal(err)
		}
	}
	return tr
}

// scrape merges the three processes' /debug/trace rings.
func (tr *processTrio) scrape(t *testing.T) []trace.TaggedSpan {
	t.Helper()
	return trace.MergeSpans(tr.pub.spans(t), tr.broker.spans(t), tr.sub.spans(t))
}

// assembleAcross waits until the trace id has fragments from all three
// processes (spans finish asynchronously with delivery), then checks its
// assembly.
func (tr *processTrio) assembleAcross(t *testing.T, id trace.TraceID) {
	t.Helper()
	var asm *trace.Assembly
	testutil.WaitFor(t, 5*time.Second, "trace "+id.String()+" spanning all three processes", func() bool {
		asm = trace.Assemble(id, tr.scrape(t))
		return len(asm.Instances) == 3
	})
	checkAssembly(t, asm)
}

// worstExemplar returns the TraceID on the highest-bucket exemplar of the
// process's metric histogram (its exposition name, such as
// eventbus_route_ns), read from the OpenMetrics /metrics exposition, after
// checking the histogram counted every traced record.
func (p *debugProc) worstExemplar(t *testing.T, metric string) (string, trace.TraceID) {
	t.Helper()
	req, err := http.NewRequest("GET", p.srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var worst, count string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, metric+"_bucket{") {
			// Buckets come lowest first, so the last exemplar is the worst.
			if _, ex, ok := strings.Cut(line, ` # {trace_id="`); ok {
				worst, _, _ = strings.Cut(ex, `"`)
			}
		}
		if v, ok := strings.CutPrefix(line, metric+"_count "); ok {
			count = v
		}
	}
	if n, err := strconv.Atoi(count); err != nil || n < tracedRecords {
		t.Fatalf("%s: %s_count = %q, want >= %d", p.name, metric, count, tracedRecords)
	}
	id, ok := trace.ParseTraceID(worst)
	if !ok || id.IsZero() {
		t.Fatalf("%s: %s exemplar TraceID = %q", p.name, metric, worst)
	}
	return worst, id
}

func TestTraceAssemblyAcrossProcesses(t *testing.T) {
	tr := runProcessTrio(t)

	// Some trace spans all three processes and assembles into one tree.
	var asm *trace.Assembly
	testutil.WaitFor(t, 5*time.Second, "a trace spanning all three processes", func() bool {
		spans := tr.scrape(t)
		for _, sp := range spans {
			if a := trace.Assemble(sp.Trace, spans); len(a.Instances) == 3 && a.Spans >= 4 {
				asm = a
				return true
			}
		}
		return false
	})
	checkAssembly(t, asm)

	// The broker's worst routing exemplar names a traced request, and that
	// request assembles the same way.
	_, id := tr.broker.worstExemplar(t, "eventbus_route_ns")
	tr.assembleAcross(t, id)
}

// TestFleetTraceAssemblyEndToEnd checks that no request is lost between the
// rings: every published record is its own trace, rooted at its
// pub.publish span, and every one of them assembles across the three
// processes.
func TestFleetTraceAssemblyEndToEnd(t *testing.T) {
	tr := runProcessTrio(t)

	var roots []trace.TraceID
	testutil.WaitFor(t, 5*time.Second, "every published trace spanning all three processes", func() bool {
		spans := tr.scrape(t)
		roots = roots[:0]
		complete := 0
		for _, sp := range spans {
			if sp.Name != "pub.publish" {
				continue
			}
			roots = append(roots, sp.Trace)
			if len(trace.Assemble(sp.Trace, spans).Instances) == 3 {
				complete++
			}
		}
		return len(roots) == tracedRecords && complete == tracedRecords
	})
	seen := map[trace.TraceID]bool{}
	for _, id := range roots {
		if seen[id] {
			t.Fatalf("trace %s has two pub.publish roots", id)
		}
		seen[id] = true
		tr.assembleAcross(t, id)
	}
}

// TestFleetExemplarEndToEnd checks that both ends of the journey carry
// exemplars that lead to whole traces: the subscriber's worst decode
// exemplar and the broker's worst routing exemplar, each read from that
// process's /metrics alone, assemble across the three processes.
func TestFleetExemplarEndToEnd(t *testing.T) {
	tr := runProcessTrio(t)

	_, decodeID := tr.sub.worstExemplar(t, "pbio_decode_ns")
	tr.assembleAcross(t, decodeID)
	_, routeID := tr.broker.worstExemplar(t, "eventbus_route_ns")
	tr.assembleAcross(t, routeID)
}

// checkAssembly requires asm to be one tree rooted at the publisher's
// pub.publish span, reaching every span with its parent link intact, with
// each stage on the process that runs it, the subscriber's queue wait as a
// broker.queue span under broker.route, clock skew anchored for every other
// process, and stage self-time shares summing to 100%.
func checkAssembly(t *testing.T, asm *trace.Assembly) {
	t.Helper()
	if len(asm.Instances) != 3 || asm.Orphans != 0 {
		t.Fatalf("trace %s covers processes %v with %d orphans, want 3 processes and 0 orphans",
			asm.Trace, asm.Instances, asm.Orphans)
	}
	if len(asm.Roots) != 1 {
		t.Fatalf("trace %s has %d roots, want 1: fragments did not stitch", asm.Trace, len(asm.Roots))
	}
	root := asm.Roots[0]
	if root.Name != "pub.publish" || root.Instance != "pub" {
		t.Fatalf("root span = %s on %s, want pub.publish on pub", root.Name, root.Instance)
	}
	if asm.Reference != "pub" {
		t.Errorf("skew reference = %q, want pub", asm.Reference)
	}

	instOf := map[string]string{}
	var flat []trace.Span
	queueUnderRoute := false
	asm.Walk(func(n *trace.Node, _ int) {
		flat = append(flat, n.Span)
		for _, c := range n.Children {
			if c.Parent != n.ID {
				t.Errorf("span %s parent = %s, want %s", c.Name, c.Parent, n.ID)
			}
			if c.Name == "broker.queue" && n.Name == "broker.route" {
				queueUnderRoute = true
			}
		}
		if prev, seen := instOf[n.Name]; seen && prev != n.Instance {
			t.Errorf("stage %s on two processes: %s and %s", n.Name, prev, n.Instance)
		}
		instOf[n.Name] = n.Instance
	})
	if len(flat) != asm.Spans {
		t.Errorf("tree links %d of %d spans", len(flat), asm.Spans)
	}
	for stage, want := range map[string]string{
		"pub.publish": "pub", "pbio.encode": "pub",
		"broker.route": "broker", "broker.queue": "broker", "pbio.decode": "sub",
	} {
		if got := instOf[stage]; got != want {
			t.Errorf("stage %s attributed to %q, want %q", stage, got, want)
		}
	}
	if !queueUnderRoute {
		t.Errorf("trace %s has no broker.queue span under broker.route", asm.Trace)
	}
	for _, sk := range asm.Skew {
		if sk.Instance != "pub" && sk.Edges == 0 {
			t.Errorf("skew for %s has no anchoring edges", sk.Instance)
		}
	}

	self := trace.SelfTimes(flat)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total <= 0 {
		t.Fatalf("trace %s has no self time: %v", asm.Trace, self)
	}
	var sum float64
	for _, d := range self {
		sum += 100 * float64(d) / float64(total)
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("stage shares sum to %.2f%%, want 100%%", sum)
	}
}

// httpJSON GETs url and decodes the JSON body into v.
func httpJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}
