// Command omtop is a live terminal viewer for a daemon's /stats endpoint —
// top for the event backbone. Point it at any openmeta daemon started with
// -debug-addr (eventbusd, metaserver, ompub) and it polls the JSON snapshot,
// printing per-second rates for counters and p50/p95/p99 latencies for
// histograms:
//
//	omtop -addr 127.0.0.1:8781
//	omtop -addr http://127.0.0.1:8781 -interval 1s
//	omtop -addr 127.0.0.1:8781 -once        # one snapshot, no rates
//	omtop -addr 127.0.0.1:8781 -n 5         # five refreshes, then exit
//
// Counters display as rate-per-second computed from consecutive snapshots;
// gauges display as their current value; a histogram named h collapses the
// h.count/.sum/.p50/.p95/.p99 keys into one line with the event rate,
// quantiles and max. A counter that moved backwards between polls (the
// daemon restarted) shows "reset" for that interval instead of a bogus
// negative rate.
//
// With -formats the display pivots to per-format wire accounting instead:
// one row per format label found in the snapshot's labeled families
// (pbio.format.* and eventbus.wire.*), with encode/decode rates, bus
// record/byte rates and metadata bytes.
//
// Lock contention is not an omtop view: run the daemon with -contention-rate
// and read /debug/pprof/mutex and /debug/pprof/block with go tool pprof.
// Metric families omtop doesn't recognize are skipped, not fatal, so it can
// watch daemons newer or older than itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"openmeta/internal/obsv"
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
	showEx := fs.Bool("exemplars", false, "append each histogram's worst trace exemplar (short TraceID) to its row")
	if err := fs.Parse(args); err != nil {
		return err
	}
	view := render
	if *formats {
		view = renderFormats
	}
	url := baseURL(*addr) + "/stats"
	getEx := func() exemplars { return nil }
	if *showEx {
		getEx = func() exemplars { return fetchExemplars(url) }
	}

	prev, err := fetchStats(url)
	if err != nil {
		return err
	}
	if *once {
		fmt.Fprint(out, view(url, nil, prev, 0, getEx()))
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
		fmt.Fprint(out, view(url, prev, cur, *interval, getEx()))
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

func fetchStats(url string) (map[string]int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return snap, nil
}

// exemplars maps a histogram family (or labeled child) name to its bucket
// exemplars, lowest bucket first — the shape of /stats?exemplars=1.
type exemplars map[string][]obsv.Exemplar

// fetchExemplars pulls the daemon's trace exemplars. Best-effort: a daemon
// predating exemplar support (or one started with
// -exemplars=false) simply yields rows without the ex column.
func fetchExemplars(url string) exemplars {
	resp, err := http.Get(url + "?exemplars=1")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var body obsv.StatsWithExemplars
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	return body.Exemplars
}

// shortTrace abbreviates a 32-hex TraceID to its 16-hex prefix for display;
// the full ID is one curl of /stats?exemplars=1 away.
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

// histSuffixes are the snapshot keys a histogram named h expands to; their
// shared base name identifies a histogram family in the flat snapshot.
var histSuffixes = []string{".count", ".sum", ".max", ".p50", ".p95", ".p99"}

// render formats one refresh. With prev == nil (the -once path) counters
// print as absolute values; otherwise they print as per-second rates over
// elapsed. ex (may be nil) adds each histogram family's worst trace exemplar
// as a short TraceID.
func render(source string, prev, cur map[string]int64, elapsed time.Duration, ex exemplars) string {
	hists := map[string]bool{}
	for k := range cur {
		if base, ok := histBase(k, cur); ok {
			hists[base] = true
		}
	}

	var scalars []string
	for k := range cur {
		if _, ok := histBase(k, cur); ok {
			continue
		}
		scalars = append(scalars, k)
	}
	sort.Strings(scalars)
	families := make([]string, 0, len(hists))
	for b := range hists {
		families = append(families, b)
	}
	sort.Strings(families)

	var b strings.Builder
	fmt.Fprintf(&b, "omtop  %s  %s\n\n", source, time.Now().Format("15:04:05"))
	for _, k := range scalars {
		if prev == nil {
			fmt.Fprintf(&b, "%-44s %12d\n", k, cur[k])
			continue
		}
		fmt.Fprintf(&b, "%-44s %12d %s\n", k, cur[k], rateCell(cur[k], prev[k], elapsed))
	}
	if len(families) > 0 {
		fmt.Fprintf(&b, "\n%-44s %10s %10s %10s %10s %10s\n",
			"histogram", "events/s", "p50", "p95", "p99", "max")
		for _, base := range families {
			rate := fmt.Sprintf("%10.1f", float64(cur[base+".count"]))
			if prev != nil {
				rate = strings.TrimSuffix(rateCell(cur[base+".count"], prev[base+".count"], elapsed), "/s")
			}
			exCell := ""
			// Bucket exemplars come lowest bucket first, so the last one is
			// the worst traced sample the family has seen.
			if exs := ex[base]; len(exs) > 0 {
				exCell = "  ex=" + shortTrace(exs[len(exs)-1].TraceID)
			}
			fmt.Fprintf(&b, "%-44s %10s %10d %10d %10d %10d%s\n",
				base, rate, cur[base+".p50"], cur[base+".p95"], cur[base+".p99"], cur[base+".max"], exCell)
		}
	}
	return b.String()
}

// splitLabels splits a labeled snapshot key like `name{k="v",k2="v2"}` into
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

func formatRows(snap map[string]int64) map[string]*fmtRow {
	rows := make(map[string]*fmtRow)
	for k, v := range snap {
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
		case "pbio.format.encoded.records":
			r.encRecs += v
		case "pbio.format.encoded.bytes":
			r.encBytes += v
		case "pbio.format.decoded.records":
			r.decRecs += v
		case "pbio.format.decoded.bytes":
			r.decBytes += v
		case "pbio.format.meta.bytes":
			r.pbioMeta += v
		case "eventbus.wire.records":
			r.busRecs += v
		case "eventbus.wire.bytes":
			r.busBytes += v
		case "eventbus.wire.meta.bytes":
			r.busMeta += v
		}
	}
	return rows
}

// renderFormats formats the per-format wire accounting view: one row per
// format label seen in the snapshot. With prev == nil counter columns show
// absolute totals; otherwise per-second rates over elapsed (clamped at 0
// across a daemon restart). Metadata bytes come from the codec-side family
// when present, falling back to the broker's wire.meta.bytes. Exemplars are
// not shown here.
func renderFormats(source string, prev, cur map[string]int64, elapsed time.Duration, _ exemplars) string {
	rows := formatRows(cur)
	var prevRows map[string]*fmtRow
	if prev != nil {
		prevRows = formatRows(prev)
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)

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

// histBase reports whether key belongs to a histogram family — it carries
// one of the histogram suffixes and the snapshot holds all six sibling keys
// for the same base name.
func histBase(key string, snap map[string]int64) (string, bool) {
	for _, s := range histSuffixes {
		if !strings.HasSuffix(key, s) {
			continue
		}
		base := strings.TrimSuffix(key, s)
		all := true
		for _, s2 := range histSuffixes {
			if _, ok := snap[base+s2]; !ok {
				all = false
				break
			}
		}
		if all {
			return base, true
		}
	}
	return "", false
}

func perSecond(delta int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(delta) / elapsed.Seconds()
}
