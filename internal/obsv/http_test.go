package obsv

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func debugGet(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, string(body)
}

// TestMetricsEndpointPrometheusFormat parses /metrics line by line against
// the text exposition format: every series line is "name value" or
// "name{le=\"bound\"} value", histogram buckets are cumulative and end at
// +Inf with the total count, and _sum/_count agree with the instruments.
func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("pbio.encode.calls").Add(5)
	r.Gauge("evb.queue-depth").Set(3)
	r.Func("dcg.cache_size", func() int64 { return 11 })
	h := r.Histogram("lat.ns")
	for _, v := range []int64{0, 1, 3, 100, 1000} {
		h.Observe(v)
	}
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	resp, body := debugGet(t, srv, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}

	types := map[string]string{}
	values := map[string]float64{}
	var bucketCums []float64
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", i)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", i, line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", i, line)
		}
		name, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i, valStr, err)
		}
		if j := strings.IndexByte(name, '{'); j >= 0 {
			series, label := name[:j], name[j:]
			if !strings.HasPrefix(label, `{le="`) || !strings.HasSuffix(label, `"}`) {
				t.Fatalf("line %d: unexpected label %q", i, label)
			}
			if series == "lat_ns_bucket" {
				bucketCums = append(bucketCums, val)
			}
			name = series
			values[name+label] = val
			continue
		}
		// Metric names must be within the Prometheus alphabet.
		for _, c := range name {
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("line %d: invalid metric name %q", i, name)
			}
		}
		values[name] = val
	}

	if types["pbio_encode_calls"] != "counter" || values["pbio_encode_calls"] != 5 {
		t.Fatalf("counter: type=%q value=%v", types["pbio_encode_calls"], values["pbio_encode_calls"])
	}
	if types["evb_queue_depth"] != "gauge" || values["evb_queue_depth"] != 3 {
		t.Fatalf("gauge: type=%q value=%v", types["evb_queue_depth"], values["evb_queue_depth"])
	}
	if types["dcg_cache_size"] != "gauge" || values["dcg_cache_size"] != 11 {
		t.Fatalf("func gauge: type=%q value=%v", types["dcg_cache_size"], values["dcg_cache_size"])
	}
	if types["lat_ns"] != "histogram" {
		t.Fatalf("histogram type %q", types["lat_ns"])
	}
	if values["lat_ns_count"] != 5 || values["lat_ns_sum"] != 1104 {
		t.Fatalf("histogram sum/count: %v/%v", values["lat_ns_sum"], values["lat_ns_count"])
	}
	if got := values[`lat_ns_bucket{le="+Inf"}`]; got != 5 {
		t.Fatalf("+Inf bucket = %v, want 5", got)
	}
	if len(bucketCums) == 0 {
		t.Fatal("no le buckets emitted")
	}
	for i := 1; i < len(bucketCums); i++ {
		if bucketCums[i] < bucketCums[i-1] {
			t.Fatalf("buckets not cumulative: %v", bucketCums)
		}
	}
	// Zeros land in the le="0" bucket; all five samples are <= 1023.
	if got := values[`lat_ns_bucket{le="0"}`]; got != 1 {
		t.Fatalf(`le="0" bucket = %v, want 1`, got)
	}
	if got := values[`lat_ns_bucket{le="1023"}`]; got != 5 {
		t.Fatalf(`le="1023" bucket = %v, want 5`, got)
	}
}

// TestStatsEndpointExemplars checks a histogram's exemplar reaches HTTP
// only in the dialect that carries exemplars: Prometheus 0.0.4 /metrics has
// the counts and no exemplar, OpenMetrics adds it on the sample's bucket.
func TestStatsEndpointExemplars(t *testing.T) {
	r := New()
	var tid [16]byte
	tid[15] = 7
	r.Histogram("lat.ns").ObserveExemplar(100, tid)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	_, flat := debugGet(t, srv, "/metrics")
	if !strings.Contains(flat, "lat_ns_count 1\n") {
		t.Fatalf("Prometheus /metrics lacks lat_ns_count 1:\n%s", flat)
	}
	if strings.Contains(flat, " # {") {
		t.Fatalf("Prometheus 0.0.4 /metrics carries an exemplar:\n%s", flat)
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rich := string(raw)
	if !strings.Contains(rich, "lat_ns_count 1\n") {
		t.Fatalf("OpenMetrics /metrics lacks lat_ns_count 1:\n%s", rich)
	}
	want := `lat_ns_bucket{le="127"} 1 # {trace_id="00000000000000000000000000000007"} 100`
	if !strings.Contains(rich, want) {
		t.Fatalf("OpenMetrics /metrics lacks exemplar %q:\n%s", want, rich)
	}
}

// TestMetricsEndpointOpenMetricsFormat mirrors the Prometheus parse test for
// the OpenMetrics dialect negotiated via the Accept header: same series with
// counter samples suffixed _total under a bare # TYPE family, a trailing
// # EOF, and exemplar suffixes that appear only on histogram _bucket lines —
// on exactly the bucket whose le bound covers the traced sample, carrying the
// sample's hex TraceID, value and a wall-clock timestamp.
func TestMetricsEndpointOpenMetricsFormat(t *testing.T) {
	r := New()
	r.Counter("pbio.encode.calls").Add(5)
	r.CounterVec("wire.records", "stream").With("orders").Add(2)
	h := r.Histogram("lat.ns")
	h.ObserveExemplar(100, testTraceID(0xab)) // bucket 7: le="127"
	h.Observe(3)                              // untraced sample, counts only
	// A second traced histogram's exemplar sits on its own bucket (bucket 9:
	// le="511"); a histogram without one gets bare bucket lines.
	r.Histogram("rt.ns").ObserveExemplar(300, testTraceID(0xcd))
	r.Histogram("silent.ns").Observe(7)
	wantEx := map[string][2]string{
		`lat_ns_bucket{le="127"}`: {strings.Repeat("ab", 16), "100"},
		`rt_ns_bucket{le="511"}`:  {strings.Repeat("cd", 16), "300"},
	}
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text; version=1.0.0") {
		t.Fatalf("content type %q", ct)
	}

	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if last := lines[len(lines)-1]; last != "# EOF" {
		t.Fatalf("last line %q, want # EOF", last)
	}
	for _, want := range []string{
		"# TYPE pbio_encode_calls counter\npbio_encode_calls_total 5\n",
		"# TYPE wire_records counter\nwire_records_total{stream=\"orders\"} 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("OpenMetrics counter family not as %q:\n%s", want, body)
		}
	}
	gotEx := map[string]bool{}
	for i, line := range lines[:len(lines)-1] {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", i)
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.Index(line, " # ")
		if idx < 0 {
			// An ordinary series line: "name value" with a single separator.
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no value separator in %q", i, line)
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Fatalf("line %d: bad value in %q: %v", i, line, err)
			}
			continue
		}
		series, ex := line[:idx], line[idx+3:]
		bucket, _, _ := strings.Cut(series, "} ")
		want, ok := wantEx[bucket+"}"]
		if !ok {
			t.Fatalf("line %d: unexpected exemplar on %q", i, series)
		}
		gotEx[bucket+"}"] = true
		name := series
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if !strings.HasSuffix(name, "_bucket") {
			t.Fatalf("line %d: exemplar on non-bucket series %q", i, series)
		}
		// The exemplar labelset is exactly {trace_id="<32 hex chars>"}.
		const open = `{trace_id="`
		if !strings.HasPrefix(ex, open) {
			t.Fatalf("line %d: malformed exemplar %q", i, ex)
		}
		rest := ex[len(open):]
		end := strings.Index(rest, `"} `)
		if end < 0 {
			t.Fatalf("line %d: unterminated exemplar labelset %q", i, ex)
		}
		gotTid := rest[:end]
		if len(gotTid) != 32 {
			t.Fatalf("line %d: trace_id %q is not 32 hex chars", i, gotTid)
		}
		for _, c := range gotTid {
			if !((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) {
				t.Fatalf("line %d: trace_id %q not hex-escaped", i, gotTid)
			}
		}
		if gotTid != want[0] {
			t.Fatalf("line %d: trace_id %q, want %s", i, gotTid, want[0])
		}
		fields := strings.Fields(rest[end+len(`"} `):])
		if len(fields) != 2 {
			t.Fatalf("line %d: exemplar tail %q, want value and timestamp", i, ex)
		}
		if fields[0] != want[1] {
			t.Fatalf("line %d: exemplar value %q, want %s", i, fields[0], want[1])
		}
		if ts, err := strconv.ParseFloat(fields[1], 64); err != nil || ts <= 0 {
			t.Fatalf("line %d: exemplar timestamp %q (%v)", i, fields[1], err)
		}
	}
	if len(gotEx) != len(wantEx) {
		t.Fatalf("exemplars on %v, want one on each of %v", gotEx, wantEx)
	}

	// The plain Prometheus exposition is unchanged: no exemplars, no EOF, and
	// counter samples keep their bare family names.
	_, plain := debugGet(t, srv, "/metrics")
	if strings.Contains(plain, "trace_id") || strings.Contains(plain, "# EOF") || strings.Contains(plain, "_total") {
		t.Fatalf("plain /metrics leaked OpenMetrics syntax:\n%s", plain)
	}
}

func TestSnapshotIncludesP95(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	snap := r.Snapshot()
	for _, k := range []string{"lat.p50", "lat.p95", "lat.p99"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("snapshot missing %s: %v", k, snap)
		}
	}
	if snap["lat.p50"] > snap["lat.p95"] || snap["lat.p95"] > snap["lat.p99"] {
		t.Fatalf("quantiles not ordered: p50=%d p95=%d p99=%d",
			snap["lat.p50"], snap["lat.p95"], snap["lat.p99"])
	}
}
