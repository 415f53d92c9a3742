// Command omtop is a live terminal viewer for a daemon's /metrics endpoint —
// top for the event backbone. Point it at any openmeta daemon started with
// -debug-addr (eventbusd, metaserver, ompub) and it polls the OpenMetrics
// exposition, printing per-second rates for counters and p50/p95/p99
// latencies for histograms:
//
//	omtop -addr 127.0.0.1:8781
//	omtop -addr http://127.0.0.1:8781 -interval 1s
//	omtop -addr 127.0.0.1:8781 -once        # one snapshot, no rates
//	omtop -addr 127.0.0.1:8781 -n 5         # five refreshes, then exit
//
// Counters display as rate-per-second computed from consecutive polls;
// gauges display as their current value. A histogram family h (its h_bucket,
// h_sum and h_count series, once per label set) collapses into one line with
// the event rate and quantiles read off the cumulative buckets; when the
// exposition carries a trace exemplar for it, the line ends with the short
// TraceID of the highest bucket's exemplar. A counter that moved backwards
// between polls (the daemon restarted) shows "reset" for that interval
// instead of a bogus negative rate.
//
// With -formats the display pivots to per-format wire accounting instead:
// one row per format label found in the labeled counter families
// (pbio_format_* and eventbus_wire_*), with encode/decode rates, bus
// record/byte rates and metadata bytes.
//
// Lock contention is not an omtop view: run the daemon with -contention-rate
// and read /debug/pprof/mutex and /debug/pprof/block with go tool pprof.
// Metric families omtop doesn't recognize are skipped, not fatal, so it can
// watch daemons newer or older than itself.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "omtop:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("omtop", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8781", "daemon debug address (host:port or http://host:port)")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	n := fs.Int("n", 0, "exit after n refreshes (0 = run until killed)")
	once := fs.Bool("once", false, "print one snapshot and exit (no rates)")
	clear := fs.Bool("clear", true, "clear the terminal between refreshes")
	formats := fs.Bool("formats", false, "show the per-format wire accounting view")
	if err := fs.Parse(args); err != nil {
		return err
	}
	view := render
	if *formats {
		view = renderFormats
	}
	url := baseURL(*addr) + "/metrics"

	prev, err := fetchStats(url)
	if err != nil {
		return err
	}
	if *once {
		fmt.Fprint(out, view(url, nil, prev, 0))
		return nil
	}
	for i := 0; *n == 0 || i < *n; i++ {
		time.Sleep(*interval)
		cur, err := fetchStats(url)
		if err != nil {
			return err
		}
		if *clear {
			fmt.Fprint(out, "\x1b[2J\x1b[H")
		}
		fmt.Fprint(out, view(url, prev, cur, *interval))
		prev = cur
	}
	return nil
}

// baseURL normalizes the -addr flag, "host:port" or "http://host:port", to
// the http base URL of a debug listener.
func baseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// fetchStats makes one GET of the exposition at url, asking for the
// OpenMetrics dialect so histogram buckets carry their trace exemplars.
func fetchStats(url string) (*snapshot, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	snap, err := parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return snap, nil
}

// snapshot is one parsed exposition. Series are keyed by family name plus
// label block, as in eventbus_wire_bytes{stream="a",format="X"}; counter
// keys drop OpenMetrics' _total suffix, and a histogram's key drops its le
// label.
type snapshot struct {
	values map[string]int64      // counter and gauge samples
	hists  map[string]*histogram // one per histogram series
}

// histogram is one histogram series: the cumulative count under each finite
// le bound, lowest first, the total count, and the TraceID of the exemplar
// on the highest bucket that carries one.
type histogram struct {
	les, cum []int64
	count    int64
	exemplar string
}

// quantile is the le bound of the bucket where the cumulative count crosses
// q. The exposition carries no max to clamp it to.
func (h *histogram) quantile(q float64) int64 {
	target := max(int64(q*float64(h.count)), 1)
	for i, c := range h.cum {
		if c >= target {
			return h.les[i]
		}
	}
	if len(h.les) == 0 {
		return 0
	}
	return h.les[len(h.les)-1]
}

// parse reads a text exposition, OpenMetrics or Prometheus 0.0.4. Samples
// of families other than counter, gauge and histogram, and lines it cannot
// read, are skipped.
func parse(r io.Reader) (*snapshot, error) {
	s := &snapshot{values: map[string]int64{}, hists: map[string]*histogram{}}
	var family, kind string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, kind, _ = strings.Cut(typ, " ")
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		line, ex, _ := strings.Cut(line, " # ")
		sp := strings.LastIndexByte(line, ' ')
		v, ok := parseValue(line[sp+1:])
		if sp < 0 || !ok {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		switch {
		case kind == "counter" && (name == family || name == family+"_total"),
			kind == "gauge" && name == family:
			s.values[family+labels] = v
		case kind == "histogram" && name == family+"_count":
			s.hist(family + labels).count = v
		case kind == "histogram" && name == family+"_bucket":
			le, labels, ok := cutLE(labels)
			if !ok {
				continue
			}
			h := s.hist(family + labels)
			if tid, ok := strings.CutPrefix(ex, `{trace_id="`); ok {
				h.exemplar, _, _ = strings.Cut(tid, `"`)
			}
			if bound, ok := parseValue(le); le != "+Inf" && ok {
				h.les = append(h.les, bound)
				h.cum = append(h.cum, v)
			}
		}
	}
	return s, sc.Err()
}

func (s *snapshot) hist(key string) *histogram {
	h := s.hists[key]
	if h == nil {
		h = &histogram{}
		s.hists[key] = h
	}
	return h
}

// cutLE splits a bucket's le label off its label block. The registry writes
// le last, so {stream="a",le="127"} gives "127" and {stream="a"}.
func cutLE(labels string) (le, rest string, ok bool) {
	i := strings.LastIndex(labels, `le="`)
	if i < 1 || (labels[i-1] != '{' && labels[i-1] != ',') || !strings.HasSuffix(labels, `"}`) {
		return "", "", false
	}
	le, rest = labels[i+len(`le="`):len(labels)-2], strings.TrimSuffix(labels[:i], ",")
	if rest == "{" {
		return le, "", true
	}
	return le, rest + "}", true
}

// parseValue reads a sample value or le bound, clamped to the int64 range.
func parseValue(s string) (int64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	switch {
	case err != nil:
		return 0, false
	case f >= math.MaxInt64:
		return math.MaxInt64, true
	case f <= math.MinInt64:
		return math.MinInt64, true
	}
	return int64(f), true
}

// shortTrace abbreviates a 32-hex TraceID to its 16-hex prefix for display;
// the full ID is on the bucket's exemplar in /metrics.
func shortTrace(tid string) string {
	if len(tid) > 16 {
		return tid[:16]
	}
	return tid
}

// rateCell formats the per-second rate column, or "reset" when the counter
// moved backwards between polls — the daemon restarted, so the delta for
// this interval is meaningless.
func rateCell(cur, prev int64, elapsed time.Duration) string {
	if cur < prev {
		return fmt.Sprintf("%12s", "reset")
	}
	return fmt.Sprintf("%10.1f/s", perSecond(cur-prev, elapsed))
}

// render formats one refresh. With prev == nil (the -once path) counters
// print as absolute values; otherwise they print as per-second rates over
// elapsed.
func render(source string, prev, cur *snapshot, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "omtop  %s  %s\n\n", source, time.Now().Format("15:04:05"))
	for _, k := range sortedKeys(cur.values) {
		if prev == nil {
			fmt.Fprintf(&b, "%-44s %12d\n", k, cur.values[k])
			continue
		}
		fmt.Fprintf(&b, "%-44s %12d %s\n", k, cur.values[k], rateCell(cur.values[k], prev.values[k], elapsed))
	}
	if len(cur.hists) > 0 {
		fmt.Fprintf(&b, "\n%-44s %10s %10s %10s %10s\n", "histogram", "events/s", "p50", "p95", "p99")
		for _, k := range sortedKeys(cur.hists) {
			h := cur.hists[k]
			rate := fmt.Sprintf("%10.1f", float64(h.count))
			if prev != nil {
				var before int64
				if p := prev.hists[k]; p != nil {
					before = p.count
				}
				rate = strings.TrimSuffix(rateCell(h.count, before, elapsed), "/s")
			}
			exCell := ""
			if h.exemplar != "" {
				exCell = "  ex=" + shortTrace(h.exemplar)
			}
			fmt.Fprintf(&b, "%-44s %10s %10d %10d %10d%s\n",
				k, rate, h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), exCell)
		}
	}
	return b.String()
}

// splitLabels splits a labeled series key like `name{k="v",k2="v2"}` into
// the bare family name and its label values. Keys without a label block
// return ok = false.
func splitLabels(key string) (base string, labels map[string]string, ok bool) {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return "", nil, false
	}
	labels = make(map[string]string)
	for _, pair := range strings.Split(key[i+1:len(key)-1], ",") {
		eq := strings.Index(pair, `="`)
		if eq < 0 || !strings.HasSuffix(pair, `"`) {
			return "", nil, false
		}
		labels[pair[:eq]] = pair[eq+2 : len(pair)-1]
	}
	return key[:i], labels, true
}

// fmtRow aggregates one format's numbers across the labeled wire-accounting
// families. Eventbus values are summed across streams.
type fmtRow struct {
	encRecs, encBytes int64
	decRecs, decBytes int64
	busRecs, busBytes int64
	pbioMeta, busMeta int64
}

func formatRows(snap *snapshot) map[string]*fmtRow {
	rows := make(map[string]*fmtRow)
	for k, v := range snap.values {
		base, labels, ok := splitLabels(k)
		if !ok || labels["format"] == "" {
			continue
		}
		r := rows[labels["format"]]
		if r == nil {
			r = &fmtRow{}
			rows[labels["format"]] = r
		}
		switch base {
		case "pbio_format_encoded_records":
			r.encRecs += v
		case "pbio_format_encoded_bytes":
			r.encBytes += v
		case "pbio_format_decoded_records":
			r.decRecs += v
		case "pbio_format_decoded_bytes":
			r.decBytes += v
		case "pbio_format_meta_bytes":
			r.pbioMeta += v
		case "eventbus_wire_records":
			r.busRecs += v
		case "eventbus_wire_bytes":
			r.busBytes += v
		case "eventbus_wire_meta_bytes":
			r.busMeta += v
		}
	}
	return rows
}

// renderFormats formats the per-format wire accounting view: one row per
// format label seen in the snapshot. With prev == nil counter columns show
// absolute totals; otherwise per-second rates over elapsed (clamped at 0
// across a daemon restart). Metadata bytes come from the codec-side family
// when present, falling back to the broker's wire_meta_bytes. Exemplars are
// not shown here.
func renderFormats(source string, prev, cur *snapshot, elapsed time.Duration) string {
	rows := formatRows(cur)
	var prevRows map[string]*fmtRow
	if prev != nil {
		prevRows = formatRows(prev)
	}
	names := sortedKeys(rows)

	var b strings.Builder
	fmt.Fprintf(&b, "omtop formats  %s  %s\n\n", source, time.Now().Format("15:04:05"))
	if len(names) == 0 {
		b.WriteString("no labeled per-format series in this snapshot\n")
		return b.String()
	}
	unit := "/s"
	if prevRows == nil {
		unit = " total"
	}
	fmt.Fprintf(&b, "%-24s %11s %11s %11s %11s %11s %11s %8s\n", "format",
		"enc"+unit, "enc B"+unit, "dec"+unit, "dec B"+unit,
		"bus"+unit, "bus B"+unit, "meta B")
	for _, name := range names {
		r := rows[name]
		p := &fmtRow{}
		if prevRows != nil {
			if pr := prevRows[name]; pr != nil {
				p = pr
			}
		}
		val := func(cur, prev int64) float64 {
			if prevRows == nil {
				return float64(cur)
			}
			if cur < prev {
				return 0 // counter reset (daemon restart): no negative rates
			}
			return perSecond(cur-prev, elapsed)
		}
		meta := r.pbioMeta
		if meta == 0 {
			meta = r.busMeta
		}
		fmt.Fprintf(&b, "%-24s %11.1f %11.1f %11.1f %11.1f %11.1f %11.1f %8d\n",
			name,
			val(r.encRecs, p.encRecs), val(r.encBytes, p.encBytes),
			val(r.decRecs, p.decRecs), val(r.decBytes, p.decBytes),
			val(r.busRecs, p.busRecs), val(r.busBytes, p.busBytes),
			meta)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func perSecond(delta int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(delta) / elapsed.Seconds()
}
