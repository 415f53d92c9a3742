package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"openmeta/internal/obsv"
)

// statsServer serves a live obsv registry the way a daemon's -debug-addr
// listener does, so omtop is tested against the real /stats shape.
func statsServer(t *testing.T, r *obsv.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(obsv.DebugMux(r))
	t.Cleanup(srv.Close)
	return srv
}

func TestFetchStats(t *testing.T) {
	r := obsv.New()
	r.Counter("evb.published").Add(42)
	r.Gauge("evb.queue_depth").Set(7)
	srv := statsServer(t, r)

	snap, err := fetchStats(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if snap["evb.published"] != 42 || snap["evb.queue_depth"] != 7 {
		t.Fatalf("unexpected snapshot: %v", snap)
	}
}

func TestBaseURL(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"single bare host:port", "127.0.0.1:8781", "http://127.0.0.1:8781"},
		{"http URL with trailing slash", "http://127.0.0.1:8781/", "http://127.0.0.1:8781"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := baseURL(tc.in); got != tc.want {
				t.Errorf("baseURL(%q) = %q, want %q", tc.in, got, tc.want)
			}
		})
	}
}

func TestFetchStatsErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	if _, err := fetchStats(srv.URL + "/stats"); err == nil {
		t.Fatal("expected error for 404 response")
	}
}

func TestRenderRatesAndHistograms(t *testing.T) {
	prev := map[string]int64{
		"evb.published": 100,
		"lat.count":     10, "lat.sum": 1000, "lat.max": 200,
		"lat.p50": 90, "lat.p95": 180, "lat.p99": 195,
	}
	cur := map[string]int64{
		"evb.published": 150,
		"lat.count":     20, "lat.sum": 2000, "lat.max": 256,
		"lat.p50": 100, "lat.p95": 200, "lat.p99": 250,
	}
	out := render("test", prev, cur, 2*time.Second, nil)

	if !strings.Contains(out, "evb.published") || !strings.Contains(out, "25.0/s") {
		t.Fatalf("counter rate missing from output:\n%s", out)
	}
	// The histogram family must collapse to one line with its quantiles, not
	// six scalar lines.
	if strings.Contains(out, "lat.p50") {
		t.Fatalf("histogram keys leaked as scalars:\n%s", out)
	}
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "lat ") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no collapsed histogram line for lat:\n%s", out)
	}
	for _, want := range []string{"100", "200", "250", "256", "5.0"} {
		if !strings.Contains(line, want) {
			t.Fatalf("histogram line missing %q: %q", want, line)
		}
	}
}

func TestRenderOnceUsesAbsoluteValues(t *testing.T) {
	cur := map[string]int64{"a": 5}
	out := render("test", nil, cur, 0, nil)
	if !strings.Contains(out, "5") || strings.Contains(out, "/s") {
		t.Fatalf("once mode should print absolute values only:\n%s", out)
	}
}

func TestRunOnceAgainstLiveServer(t *testing.T) {
	r := obsv.New()
	r.Counter("pbio.encode.calls").Add(3)
	r.Histogram("dcg.plan.compile_ns").Observe(1500)
	srv := statsServer(t, r)

	var buf bytes.Buffer
	if err := run([]string{"-addr", srv.URL, "-once"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pbio.encode.calls") {
		t.Fatalf("missing counter in output:\n%s", out)
	}
	if !strings.Contains(out, "dcg.plan.compile_ns") {
		t.Fatalf("missing histogram family in output:\n%s", out)
	}
}

func TestSplitLabels(t *testing.T) {
	base, labels, ok := splitLabels(`eventbus.wire.records{stream="flights",format="ASDOffEvent"}`)
	if !ok || base != "eventbus.wire.records" {
		t.Fatalf("base = %q, ok = %v", base, ok)
	}
	if labels["stream"] != "flights" || labels["format"] != "ASDOffEvent" {
		t.Fatalf("labels = %v", labels)
	}
	if _, _, ok := splitLabels("plain.counter"); ok {
		t.Fatal("unlabeled key parsed as labeled")
	}
}

func TestRenderFormatsAggregatesPerFormat(t *testing.T) {
	prev := map[string]int64{
		`pbio.format.encoded.records{format="ASDOffEvent"}`:      100,
		`pbio.format.encoded.bytes{format="ASDOffEvent"}`:        4000,
		`eventbus.wire.records{stream="a",format="ASDOffEvent"}`: 50,
		`eventbus.wire.records{stream="b",format="ASDOffEvent"}`: 50,
		`pbio.format.meta.bytes{format="ASDOffEvent"}`:           321,
		`pbio.format.decoded.records{format="CheckinEvent"}`:     10,
	}
	cur := map[string]int64{
		`pbio.format.encoded.records{format="ASDOffEvent"}`:      200,
		`pbio.format.encoded.bytes{format="ASDOffEvent"}`:        8000,
		`eventbus.wire.records{stream="a",format="ASDOffEvent"}`: 80,
		`eventbus.wire.records{stream="b",format="ASDOffEvent"}`: 120,
		`pbio.format.meta.bytes{format="ASDOffEvent"}`:           321,
		`pbio.format.decoded.records{format="CheckinEvent"}`:     30,
		"plain.counter": 5,
	}
	out := renderFormats("test", prev, cur, 2*time.Second, nil)

	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "ASDOffEvent") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no row for ASDOffEvent:\n%s", out)
	}
	// 100 encodes / 2s = 50/s; bus records sum across both streams:
	// (80+120)-(50+50) = 100 / 2s = 50/s; metadata bytes absolute.
	for _, want := range []string{"50.0", "2000.0", "321"} {
		if !strings.Contains(line, want) {
			t.Fatalf("format row missing %q: %q", want, line)
		}
	}
	if !strings.Contains(out, "CheckinEvent") {
		t.Fatalf("second format missing:\n%s", out)
	}
	if strings.Contains(out, "plain.counter") {
		t.Fatalf("unlabeled key leaked into formats view:\n%s", out)
	}
}

// TestRenderToleratesUnknownFamilies: daemons export metric families omtop
// predates (runtime bridge gauges, labeled queue-wait children). Every view
// must render them or skip them — never error.
func TestRenderToleratesUnknownFamilies(t *testing.T) {
	cur := map[string]int64{
		"runtime.goroutines":        37,
		"runtime.heap.alloc_bytes":  1 << 20,
		"runtime.gc.pause_ns.count": 4, "runtime.gc.pause_ns.sum": 400000,
		"runtime.gc.pause_ns.max": 200000, "runtime.gc.pause_ns.p50": 80000,
		"runtime.gc.pause_ns.p95": 150000, "runtime.gc.pause_ns.p99": 190000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.count`: 12,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.sum`:   24000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.max`:   9000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.p50`:   1000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.p95`:   4000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.p99`:   8000,
		// A deliberately partial family: siblings missing, must fall back to
		// scalar rendering rather than failing the histogram collapse.
		"mystery.metric.p99": 123,
	}
	for name, fn := range map[string]func(string, map[string]int64, map[string]int64, time.Duration, exemplars) string{
		"render":        render,
		"renderFormats": renderFormats,
	} {
		out := fn("test", nil, cur, 0, nil)
		if name != "renderFormats" && !strings.Contains(out, "runtime.goroutines") {
			t.Fatalf("%s dropped the runtime gauge:\n%s", name, out)
		}
		if strings.Contains(out, "runtime.gc.pause_ns.p50") {
			t.Fatalf("%s leaked histogram siblings as scalars:\n%s", name, out)
		}
	}
}

func TestRenderFormatsOnceShowsTotals(t *testing.T) {
	cur := map[string]int64{
		`pbio.format.encoded.records{format="X"}`: 7,
	}
	out := renderFormats("test", nil, cur, 0, nil)
	if !strings.Contains(out, "enc total") || !strings.Contains(out, "7.0") {
		t.Fatalf("once mode should print absolute totals:\n%s", out)
	}
}

func TestRenderFormatsEmpty(t *testing.T) {
	out := renderFormats("test", nil, map[string]int64{"plain": 1}, 0, nil)
	if !strings.Contains(out, "no labeled per-format series") {
		t.Fatalf("empty formats view should say so:\n%s", out)
	}
}

func TestRunPollsForNRefreshes(t *testing.T) {
	r := obsv.New()
	c := r.Counter("ticks")
	srv := statsServer(t, r)
	go func() {
		for range [100]struct{}{} {
			c.Inc()
			time.Sleep(time.Millisecond)
		}
	}()

	var buf bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-interval", "30ms", "-n", "2", "-clear=false"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "omtop"); n != 2 {
		t.Fatalf("want 2 refresh headers, got %d:\n%s", n, buf.String())
	}
}

// TestRenderCounterReset simulates a daemon restart between polls: the
// counter went backwards, so the rate cell must read "reset", not a negative
// rate — and other rows must be unaffected.
func TestRenderCounterReset(t *testing.T) {
	prev := map[string]int64{"evb.published": 100000, "evb.other": 10}
	cur := map[string]int64{"evb.published": 42, "evb.other": 30}
	out := render("test", prev, cur, 2*time.Second, nil)

	resetLine := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "evb.published") {
			resetLine = l
		}
	}
	if !strings.Contains(resetLine, "reset") {
		t.Fatalf("restarted counter not marked reset: %q", resetLine)
	}
	if strings.Contains(resetLine, "-") {
		t.Fatalf("negative rate leaked: %q", resetLine)
	}
	if !strings.Contains(out, "10.0/s") {
		t.Fatalf("healthy counter's rate missing:\n%s", out)
	}
	// Next interval the baseline is the post-restart value again.
	out = render("test", cur, map[string]int64{"evb.published": 62, "evb.other": 50}, 2*time.Second, nil)
	if strings.Contains(out, "reset") {
		t.Fatalf("reset marker persisted past the restart interval:\n%s", out)
	}
}

// TestRenderFormatsCounterReset: the formats view clamps a restarted
// counter's rate at zero rather than printing a negative rate.
func TestRenderFormatsCounterReset(t *testing.T) {
	prev := map[string]int64{`pbio.format.encoded.records{format="X"}`: 100000}
	cur := map[string]int64{`pbio.format.encoded.records{format="X"}`: 6}
	out := renderFormats("test", prev, cur, 2*time.Second, nil)
	if regexp.MustCompile(`-\d`).MatchString(out) {
		t.Fatalf("negative rate leaked across restart:\n%s", out)
	}
	if !strings.Contains(out, "0.0") {
		t.Fatalf("clamped rate missing:\n%s", out)
	}
}

// TestRenderExemplarColumn covers the -exemplars decoration: histogram rows
// gain an ex=<short TraceID> cell fed by /stats?exemplars=1, scalars never
// do, and the worst (highest) bucket's exemplar wins.
func TestRenderExemplarColumn(t *testing.T) {
	histFam := map[string]int64{
		"rt.ns.count": 10, "rt.ns.sum": 1000, "rt.ns.max": 500,
		"rt.ns.p50": 80, "rt.ns.p95": 300, "rt.ns.p99": 450,
		"evb.published": 7,
	}
	low := obsv.Exemplar{Bucket: 7, Value: 100, TraceID: strings.Repeat("aa", 16), TimeUnixNS: 1}
	high := obsv.Exemplar{Bucket: 9, Value: 450, TraceID: strings.Repeat("bc", 16), TimeUnixNS: 2}
	for _, tc := range []struct {
		name string
		ex   exemplars
		want []string
		not  []string
	}{
		{
			name: "nil map leaves rows bare",
			ex:   nil,
			not:  []string{"ex="},
		},
		{
			name: "worst bucket exemplar rendered short",
			ex:   exemplars{"rt.ns": {low, high}},
			want: []string{"ex=" + strings.Repeat("bc", 8)},
			not:  []string{strings.Repeat("bc", 16), strings.Repeat("aa", 8)},
		},
		{
			name: "exemplars for unknown families ignored",
			ex:   exemplars{"other.ns": {high}},
			not:  []string{"ex="},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := render("test", nil, histFam, 0, tc.ex)
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
			for _, n := range tc.not {
				if strings.Contains(out, n) {
					t.Errorf("output should not contain %q:\n%s", n, out)
				}
			}
		})
	}
}

// TestShortTrace pins the display abbreviation.
func TestShortTrace(t *testing.T) {
	for in, want := range map[string]string{
		strings.Repeat("ab", 16): strings.Repeat("ab", 8),
		"deadbeef":               "deadbeef",
		"":                       "",
	} {
		if got := shortTrace(in); got != want {
			t.Errorf("shortTrace(%q) = %q, want %q", in, got, want)
		}
	}
}
