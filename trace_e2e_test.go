package openmeta

// One trace across three processes: a publisher, a broker and a
// subscriber, each with its own registry and recorder served
// on its own debug listener, exactly like three processes started with
// -debug-addr. The tests read each /debug/trace ring over HTTP, join the
// fragments on their hex trace ids and check that each trace is one
// parent-linked tree over the three processes; the latency exemplars on the
// OpenMetrics /metrics exposition lead to traces that hold the same way.

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
	rec  *trace.Recorder
	srv  *httptest.Server
}

func newDebugProc(t *testing.T, name string) *debugProc {
	t.Helper()
	p := &debugProc{name: name, reg: obsv.New(), rec: trace.New(256, 0)}
	p.rec.SetSampling(1)
	p.srv = httptest.NewServer(obsv.DebugMuxFor(p.reg, obsv.NewHealth(), p.rec))
	t.Cleanup(p.srv.Close)
	return p
}

// scrapedSpan is one span of a /debug/trace body, with the process that
// served it.
type scrapedSpan struct {
	proc                      string
	Trace, Span, Parent, Name string
}

// spans reads the process's /debug/trace ring.
func (p *debugProc) spans(t *testing.T) []scrapedSpan {
	t.Helper()
	var body struct {
		Spans []scrapedSpan `json:"spans"`
	}
	httpJSON(t, p.srv.URL+"/debug/trace", &body)
	for i := range body.Spans {
		body.Spans[i].proc = p.name
	}
	return body.Spans
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

	// The trace context travels on the wire (the traced publish and event
	// frames), so the three rings record fragments of the same TraceIDs.
	broker, err := eventbus.Listen("127.0.0.1:0",
		eventbus.WithObserver(tr.broker.reg),
		eventbus.WithRecorder(tr.broker.rec))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { broker.Close() })

	subCtx, err := pbio.NewContext(machine.Native, pbio.WithObserver(tr.sub.reg))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eventbus.DialSubscriber(broker.Addr().String(), subCtx,
		eventbus.WithClientRecorder(tr.sub.rec))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() })
	if err := sub.Subscribe(airline.FlightStream); err != nil {
		t.Fatal(err)
	}

	pub, err := eventbus.DialPublisher(broker.Addr().String(),
		eventbus.WithClientRecorder(tr.pub.rec))
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

// scrape reads the three processes' /debug/trace rings, keyed by trace id.
func (tr *processTrio) scrape(t *testing.T) map[string][]scrapedSpan {
	t.Helper()
	byTrace := map[string][]scrapedSpan{}
	for _, p := range []*debugProc{tr.pub, tr.broker, tr.sub} {
		for _, sp := range p.spans(t) {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	return byTrace
}

// procs counts the processes that recorded spans of a trace.
func procs(spans []scrapedSpan) int {
	seen := map[string]bool{}
	for _, sp := range spans {
		seen[sp.proc] = true
	}
	return len(seen)
}

// checkAcross waits until the trace has spans from all three processes
// (spans finish asynchronously with delivery), then checks it.
func (tr *processTrio) checkAcross(t *testing.T, id string) {
	t.Helper()
	var spans []scrapedSpan
	testutil.WaitFor(t, 5*time.Second, "trace "+id+" spanning all three processes", func() bool {
		spans = tr.scrape(t)[id]
		return procs(spans) == 3
	})
	checkTrace(t, id, spans)
}

// worstExemplar returns the TraceID on the highest-bucket exemplar of the
// process's metric histogram (its exposition name, such as
// eventbus_route_ns), read from the OpenMetrics /metrics exposition, after
// checking the histogram counted every traced record.
func (p *debugProc) worstExemplar(t *testing.T, metric string) string {
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
	if len(worst) != 32 || strings.Trim(worst, "0") == "" {
		t.Fatalf("%s: %s exemplar TraceID = %q", p.name, metric, worst)
	}
	return worst
}

func TestTraceAssemblyAcrossProcesses(t *testing.T) {
	tr := runProcessTrio(t)

	// Some trace spans all three processes and forms one tree.
	var id string
	var spans []scrapedSpan
	testutil.WaitFor(t, 5*time.Second, "a trace spanning all three processes", func() bool {
		for id, spans = range tr.scrape(t) {
			if procs(spans) == 3 && len(spans) >= 4 {
				return true
			}
		}
		return false
	})
	checkTrace(t, id, spans)

	// The broker's worst routing exemplar names a traced request, and that
	// request forms the same tree.
	tr.checkAcross(t, tr.broker.worstExemplar(t, "eventbus_route_ns"))
}

// TestFleetTraceAssemblyEndToEnd checks that no request is lost between the
// rings: every published record is its own trace, rooted at its
// pub.publish span, and every one of them spans the three processes.
func TestFleetTraceAssemblyEndToEnd(t *testing.T) {
	tr := runProcessTrio(t)

	var roots []string
	testutil.WaitFor(t, 5*time.Second, "every published trace spanning all three processes", func() bool {
		byTrace := tr.scrape(t)
		roots = roots[:0]
		complete := 0
		for id, spans := range byTrace {
			for _, sp := range spans {
				if sp.Name == "pub.publish" {
					roots = append(roots, id)
				}
			}
			if procs(spans) == 3 {
				complete++
			}
		}
		return len(roots) == tracedRecords && complete == tracedRecords
	})
	seen := map[string]bool{}
	for _, id := range roots {
		if seen[id] {
			t.Fatalf("trace %s has two pub.publish roots", id)
		}
		seen[id] = true
		tr.checkAcross(t, id)
	}
}

// TestFleetExemplarEndToEnd checks that both ends of the journey carry
// exemplars that lead to whole traces: the subscriber's worst decode
// exemplar and the broker's worst routing exemplar, each read from that
// process's /metrics alone, span the three processes as one tree.
func TestFleetExemplarEndToEnd(t *testing.T) {
	tr := runProcessTrio(t)

	tr.checkAcross(t, tr.sub.worstExemplar(t, "pbio_decode_ns"))
	tr.checkAcross(t, tr.broker.worstExemplar(t, "eventbus_route_ns"))
}

// checkTrace requires the spans of one trace to come from all three
// processes and to form one tree: a single span without a parent, the
// publisher's pub.publish, and every other span's parent among the trace's
// spans. Each stage runs on its own process, and the subscriber's queue
// wait is a broker.queue span under broker.route.
func checkTrace(t *testing.T, id string, spans []scrapedSpan) {
	t.Helper()
	if n := procs(spans); n != 3 {
		t.Fatalf("trace %s covers %d processes, want 3", id, n)
	}
	byID := map[string]scrapedSpan{}
	for _, sp := range spans {
		byID[sp.Span] = sp
	}
	var roots []scrapedSpan
	queueUnderRoute := false
	procOf := map[string]string{}
	for _, sp := range spans {
		parent, ok := byID[sp.Parent]
		switch {
		case sp.Parent == "":
			roots = append(roots, sp)
		case !ok:
			t.Errorf("trace %s: span %s (%s on %s) is an orphan", id, sp.Span, sp.Name, sp.proc)
		case sp.Name == "broker.queue" && parent.Name == "broker.route":
			queueUnderRoute = true
		}
		if prev, seen := procOf[sp.Name]; seen && prev != sp.proc {
			t.Errorf("stage %s on two processes: %s and %s", sp.Name, prev, sp.proc)
		}
		procOf[sp.Name] = sp.proc
	}
	if len(roots) != 1 || roots[0].Name != "pub.publish" || roots[0].proc != "pub" {
		t.Fatalf("trace %s has roots %+v, want one: pub.publish on pub", id, roots)
	}
	for stage, want := range map[string]string{
		"pub.publish": "pub", "pbio.encode": "pub",
		"broker.route": "broker", "broker.queue": "broker", "pbio.decode": "sub",
	} {
		if got := procOf[stage]; got != want {
			t.Errorf("stage %s attributed to %q, want %q", stage, got, want)
		}
	}
	if !queueUnderRoute {
		t.Errorf("trace %s has no broker.queue span under broker.route", id)
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
