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
// listener does, so omtop is tested against the real /metrics exposition.
func statsServer(t *testing.T, r *obsv.Registry) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(obsv.DebugMux(r))
	t.Cleanup(srv.Close)
	return srv
}

// exposition parses an OpenMetrics text fixture.
func exposition(t *testing.T, text string) *snapshot {
	t.Helper()
	s, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rowFor returns the first output line starting with prefix.
func rowFor(out, prefix string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

func traceID(b byte) [16]byte {
	var tid [16]byte
	for i := range tid {
		tid[i] = b
	}
	return tid
}

// TestFetchStats reads every kind of series off a live DebugMux: counters
// (with OpenMetrics' _total stripped), gauges, and a histogram keyed without
// its le label, carrying its highest bucket's exemplar.
func TestFetchStats(t *testing.T) {
	r := obsv.New()
	r.Counter("evb.published").Add(42)
	r.Gauge("evb.queue_depth").Set(7)
	r.CounterVec("evb.wire.records", "stream").With("flights").Add(3)
	h := r.Histogram("rt.ns")
	h.ObserveExemplar(100, traceID(0xaa)) // le="127"
	h.ObserveExemplar(300, traceID(0xbc)) // le="511"
	h.Observe(3)
	srv := statsServer(t, r)

	snap, err := fetchStats(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if snap.values["evb_published"] != 42 || snap.values["evb_queue_depth"] != 7 ||
		snap.values[`evb_wire_records{stream="flights"}`] != 3 {
		t.Fatalf("unexpected values: %v", snap.values)
	}
	got := snap.hists["rt_ns"]
	if got == nil || len(snap.hists) != 1 {
		t.Fatalf("histograms = %v, want one keyed rt_ns", snap.hists)
	}
	if got.count != 3 || got.exemplar != strings.Repeat("bc", 16) {
		t.Fatalf("histogram count %d exemplar %q", got.count, got.exemplar)
	}
	if p50, p99, p100 := got.quantile(0.5), got.quantile(0.99), got.quantile(1); p50 != 3 || p99 != 127 || p100 != 511 {
		t.Fatalf("p50 = %d, p99 = %d, p100 = %d, want 3, 127 and 511", p50, p99, p100)
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
	if _, err := fetchStats(srv.URL + "/metrics"); err == nil {
		t.Fatal("expected error for 404 response")
	}
}

// TestParseExposition pins the parser on what neither dialect shares: the
// Prometheus 0.0.4 counter sample is bare where OpenMetrics adds _total, le
// bounds are printed with %g, and families omtop doesn't know are skipped.
func TestParseExposition(t *testing.T) {
	s := exposition(t, `# TYPE plain counter
plain 4
# TYPE om counter
om_total{stream="a b"} 5
# TYPE big histogram
big_bucket{le="0"} 1
big_bucket{le="1.048575e+06"} 2
big_bucket{le="1.8446744073709552e+19"} 3
big_bucket{le="+Inf"} 3
big_sum 9
big_count 3
# TYPE s summary
s{quantile="0.5"} 1
untyped 2
# EOF
`)
	if s.values["plain"] != 4 || s.values[`om{stream="a b"}`] != 5 || len(s.values) != 2 {
		t.Fatalf("values = %v", s.values)
	}
	h := s.hists["big"]
	if h == nil || len(s.hists) != 1 {
		t.Fatalf("histograms = %v", s.hists)
	}
	if q := h.quantile(0.1); q != 0 {
		t.Fatalf("p10 = %d, want 0", q)
	}
	if q := h.quantile(0.99); q != 1048575 {
		t.Fatalf("p99 = %d, want 1048575", q)
	}
	if q := h.quantile(1); q != 1<<63-1 {
		t.Fatalf("p100 = %d, want the bound clamped to MaxInt64", q)
	}
}

func TestRenderRatesAndHistograms(t *testing.T) {
	prev := exposition(t, `# TYPE evb_published counter
evb_published_total 100
# TYPE lat histogram
lat_bucket{le="127"} 50
lat_bucket{le="255"} 90
lat_bucket{le="+Inf"} 90
lat_sum 9000
lat_count 90
`)
	cur := exposition(t, `# TYPE evb_published counter
evb_published_total 150
# TYPE lat histogram
lat_bucket{le="127"} 50
lat_bucket{le="255"} 95
lat_bucket{le="511"} 100
lat_bucket{le="+Inf"} 100
lat_sum 10000
lat_count 100
`)
	out := render("test", prev, cur, 2*time.Second)

	if !strings.Contains(out, "evb_published") || !strings.Contains(out, "25.0/s") || strings.Contains(out, "_total") {
		t.Fatalf("counter rate missing from output:\n%s", out)
	}
	// The histogram family must collapse to one line with its quantiles, not
	// one scalar line per series.
	for _, leaked := range []string{"lat_bucket", "lat_sum", "lat_count"} {
		if strings.Contains(out, leaked) {
			t.Fatalf("histogram series %s leaked as a scalar:\n%s", leaked, out)
		}
	}
	line := rowFor(out, "lat ")
	if line == "" {
		t.Fatalf("no collapsed histogram line for lat:\n%s", out)
	}
	// p50 127, p95 255, p99 511; (100-90) events over 2s.
	if f := strings.Fields(line); len(f) != 5 || f[1] != "5.0" || f[2] != "127" || f[3] != "255" || f[4] != "511" {
		t.Fatalf("histogram line = %q, want lat 5.0 127 255 511", line)
	}
}

func TestRenderOnceUsesAbsoluteValues(t *testing.T) {
	cur := exposition(t, "# TYPE a gauge\na 5\n")
	out := render("test", nil, cur, 0)
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
	if !strings.Contains(out, "pbio_encode_calls ") {
		t.Fatalf("missing counter in output:\n%s", out)
	}
	if line := rowFor(out, "dcg_plan_compile_ns "); !strings.Contains(line, "2047") {
		t.Fatalf("missing histogram family or its p50 in output:\n%s", out)
	}
}

func TestSplitLabels(t *testing.T) {
	base, labels, ok := splitLabels(`eventbus_wire_records{stream="flights",format="ASDOffEvent"}`)
	if !ok || base != "eventbus_wire_records" {
		t.Fatalf("base = %q, ok = %v", base, ok)
	}
	if labels["stream"] != "flights" || labels["format"] != "ASDOffEvent" {
		t.Fatalf("labels = %v", labels)
	}
	if _, _, ok := splitLabels("plain_counter"); ok {
		t.Fatal("unlabeled key parsed as labeled")
	}
}

func TestRenderFormatsAggregatesPerFormat(t *testing.T) {
	prev := exposition(t, `# TYPE pbio_format_encoded_records counter
pbio_format_encoded_records_total{format="ASDOffEvent"} 100
# TYPE pbio_format_encoded_bytes counter
pbio_format_encoded_bytes_total{format="ASDOffEvent"} 4000
# TYPE eventbus_wire_records counter
eventbus_wire_records_total{stream="a",format="ASDOffEvent"} 50
eventbus_wire_records_total{stream="b",format="ASDOffEvent"} 50
# TYPE pbio_format_meta_bytes counter
pbio_format_meta_bytes_total{format="ASDOffEvent"} 321
# TYPE pbio_format_decoded_records counter
pbio_format_decoded_records_total{format="CheckinEvent"} 10
`)
	cur := exposition(t, `# TYPE pbio_format_encoded_records counter
pbio_format_encoded_records_total{format="ASDOffEvent"} 200
# TYPE pbio_format_encoded_bytes counter
pbio_format_encoded_bytes_total{format="ASDOffEvent"} 8000
# TYPE eventbus_wire_records counter
eventbus_wire_records_total{stream="a",format="ASDOffEvent"} 80
eventbus_wire_records_total{stream="b",format="ASDOffEvent"} 120
# TYPE pbio_format_meta_bytes counter
pbio_format_meta_bytes_total{format="ASDOffEvent"} 321
# TYPE pbio_format_decoded_records counter
pbio_format_decoded_records_total{format="CheckinEvent"} 30
# TYPE plain_counter counter
plain_counter_total 5
`)
	out := renderFormats("test", prev, cur, 2*time.Second)

	line := rowFor(out, "ASDOffEvent")
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
	if strings.Contains(out, "plain_counter") {
		t.Fatalf("unlabeled key leaked into formats view:\n%s", out)
	}
}

// TestRenderToleratesUnknownFamilies: daemons export metric families omtop
// predates (runtime bridge gauges, labeled queue-wait children, kinds the
// registry does not write). Every view must render them or skip them —
// never error.
func TestRenderToleratesUnknownFamilies(t *testing.T) {
	cur := exposition(t, `# TYPE runtime_goroutines gauge
runtime_goroutines 37
# TYPE runtime_heap_alloc_bytes gauge
runtime_heap_alloc_bytes 1048576
# TYPE runtime_gc_pause_ns histogram
runtime_gc_pause_ns_bucket{le="131071"} 4
runtime_gc_pause_ns_bucket{le="+Inf"} 4
runtime_gc_pause_ns_sum 400000
runtime_gc_pause_ns_count 4
# TYPE eventbus_subscriber_queue_wait_ns histogram
eventbus_subscriber_queue_wait_ns_bucket{conn="3",le="1023"} 12
eventbus_subscriber_queue_wait_ns_bucket{conn="3",le="+Inf"} 12
eventbus_subscriber_queue_wait_ns_sum{conn="3"} 24000
eventbus_subscriber_queue_wait_ns_count{conn="3"} 12
# TYPE mystery summary
mystery{quantile="0.99"} 123
mystery_count 1
# TYPE broken histogram
broken_bucket{le="oops"} x
broken_bucket 3
# EOF
`)
	for name, fn := range map[string]func(string, *snapshot, *snapshot, time.Duration) string{
		"render":        render,
		"renderFormats": renderFormats,
	} {
		out := fn("test", nil, cur, 0)
		if name != "renderFormats" {
			if !strings.Contains(out, "runtime_goroutines") {
				t.Fatalf("%s dropped the runtime gauge:\n%s", name, out)
			}
			if rowFor(out, `eventbus_subscriber_queue_wait_ns{conn="3"}`) == "" {
				t.Fatalf("%s dropped the labeled histogram child:\n%s", name, out)
			}
		}
		for _, leaked := range []string{"runtime_gc_pause_ns_bucket", "mystery", "broken"} {
			if strings.Contains(out, leaked) {
				t.Fatalf("%s leaked %s:\n%s", name, leaked, out)
			}
		}
	}
}

func TestRenderFormatsOnceShowsTotals(t *testing.T) {
	cur := exposition(t, "# TYPE pbio_format_encoded_records counter\npbio_format_encoded_records_total{format=\"X\"} 7\n")
	out := renderFormats("test", nil, cur, 0)
	if !strings.Contains(out, "enc total") || !strings.Contains(out, "7.0") {
		t.Fatalf("once mode should print absolute totals:\n%s", out)
	}
}

func TestRenderFormatsEmpty(t *testing.T) {
	out := renderFormats("test", nil, exposition(t, "# TYPE plain gauge\nplain 1\n"), 0)
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
	counters := func(published, other int) *snapshot {
		return &snapshot{values: map[string]int64{"evb_published": int64(published), "evb_other": int64(other)}}
	}
	prev, cur := counters(100000, 10), counters(42, 30)
	out := render("test", prev, cur, 2*time.Second)

	resetLine := rowFor(out, "evb_published")
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
	out = render("test", cur, counters(62, 50), 2*time.Second)
	if strings.Contains(out, "reset") {
		t.Fatalf("reset marker persisted past the restart interval:\n%s", out)
	}
}

// TestRenderFormatsCounterReset: the formats view clamps a restarted
// counter's rate at zero rather than printing a negative rate.
func TestRenderFormatsCounterReset(t *testing.T) {
	encoded := func(n int64) *snapshot {
		return &snapshot{values: map[string]int64{`pbio_format_encoded_records{format="X"}`: n}}
	}
	out := renderFormats("test", encoded(100000), encoded(6), 2*time.Second)
	if regexp.MustCompile(`-\d`).MatchString(out) {
		t.Fatalf("negative rate leaked across restart:\n%s", out)
	}
	if !strings.Contains(out, "0.0") {
		t.Fatalf("clamped rate missing:\n%s", out)
	}
}

// TestRenderExemplarColumn covers the exemplar decoration: a histogram row
// gains an ex=<short TraceID> cell whenever the exposition carries an
// exemplar for it, the worst (highest) bucket's exemplar wins, and exemplar
// suffixes anywhere but on a histogram bucket are ignored.
func TestRenderExemplarColumn(t *testing.T) {
	const head = `# TYPE evb_published counter
evb_published_total 7
# TYPE rt_ns histogram
`
	for _, tc := range []struct {
		name string
		text string
		want []string
		not  []string
	}{
		{
			name: "nil map leaves rows bare",
			text: head + `rt_ns_bucket{le="127"} 4
rt_ns_bucket{le="511"} 10
rt_ns_bucket{le="+Inf"} 10
rt_ns_count 10
`,
			not: []string{"ex="},
		},
		{
			name: "worst bucket exemplar rendered short",
			text: head + `rt_ns_bucket{le="127"} 4 # {trace_id="` + strings.Repeat("aa", 16) + `"} 100 1.000000000
rt_ns_bucket{le="511"} 10 # {trace_id="` + strings.Repeat("bc", 16) + `"} 450 2.000000000
rt_ns_bucket{le="+Inf"} 10
rt_ns_count 10
`,
			want: []string{"ex=" + strings.Repeat("bc", 8)},
			not:  []string{strings.Repeat("bc", 16), strings.Repeat("aa", 8)},
		},
		{
			name: "exemplars for unknown families ignored",
			text: `# TYPE evb_published counter
evb_published_total 7 # {trace_id="` + strings.Repeat("bc", 16) + `"} 1 1.000000000
# TYPE other_ns summary
other_ns_count 1 # {trace_id="` + strings.Repeat("bc", 16) + `"} 1 1.000000000
# TYPE rt_ns histogram
rt_ns_bucket{le="127"} 4
rt_ns_bucket{le="+Inf"} 4
rt_ns_count 4
`,
			not: []string{"ex="},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := render("test", nil, exposition(t, tc.text), 0)
			if rowFor(out, "rt_ns ") == "" {
				t.Fatalf("no rt_ns row:\n%s", out)
			}
			for _, w := range tc.want {
				if !strings.Contains(rowFor(out, "rt_ns "), w) {
					t.Errorf("rt_ns row missing %q:\n%s", w, out)
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
