package loadgen

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ReportSchema versions the JSON report shape for downstream consumers
// (scripts/bench.sh).
const ReportSchema = "omload/v1"

// LatencySummary is the percentile digest of one latency distribution, in
// nanoseconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Min   int64   `json:"min"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
}

func summarize(h *Hist) LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		Min:   h.Min(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}

// ClassReport is one subscriber class's slice of the run.
type ClassReport struct {
	Subscribers  int            `json:"subscribers"`
	Received     int64          `json:"received"`
	Bytes        int64          `json:"bytes"`
	DecodeErrors int64          `json:"decode_errors,omitempty"`
	Latency      LatencySummary `json:"latency_ns"`

	hist Hist
}

// StageShare is one pipeline stage's share of the traced self time.
type StageShare struct {
	Name     string        `json:"name"`
	Total    time.Duration `json:"total_ns"`
	SharePct float64       `json:"share_pct"`
}

// Report is the result of one load run.
type Report struct {
	Schema  string        `json:"schema"`
	Spec    Spec          `json:"spec"`
	Elapsed time.Duration `json:"elapsed_ns"`

	Published     int64 `json:"published"`
	PublishErrors int64 `json:"publish_errors,omitempty"`
	// Behind counts open-loop arrivals that fell behind schedule; MaxLag is
	// the worst backlog. Sustained lag means the generator, not the system,
	// became the bottleneck at this rate.
	Behind int64         `json:"behind"`
	MaxLag time.Duration `json:"max_lag_ns"`

	Delivered      int64 `json:"delivered"`
	DeliveredBytes int64 `json:"delivered_bytes"`
	// Dropped is the broker's slow-subscriber drop count (in-process runs
	// only; -1 would be unknowable but remote runs simply report 0 here and
	// BrokerPublished/BrokerDelivered stay 0).
	Dropped         int64 `json:"dropped"`
	BrokerPublished int64 `json:"broker_published,omitempty"`
	BrokerDelivered int64 `json:"broker_delivered,omitempty"`

	RecordsPerSec float64 `json:"records_per_sec"`
	BytesPerSec   float64 `json:"bytes_per_sec"`

	Latency LatencySummary          `json:"latency_ns"`
	Classes map[string]*ClassReport `json:"classes"`
	// Stages is the encode/publish/route/convert/deliver self-time
	// breakdown from trace spans, largest share first; empty when tracing
	// was disabled or (for remote brokers) no spans were captured.
	Stages []StageShare `json:"stages,omitempty"`
	// Autopsy links the run's p99 to a real traced request: the nearest
	// traced sample's TraceID, its assembled span tree and that one
	// request's own stage breakdown. Nil when tracing was disabled.
	Autopsy *Autopsy `json:"autopsy,omitempty"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// classNames returns the report's subscriber classes in display order.
func (r *Report) classNames() []string {
	names := make([]string, 0, len(r.Classes))
	for n := range r.Classes {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return classOrder(names[i]) < classOrder(names[j]) })
	return names
}

func classOrder(c string) int {
	switch c {
	case ClassPlain:
		return 0
	case ClassScoped:
		return 1
	case ClassConverting:
		return 2
	default:
		return 3
	}
}

// fmtDur renders nanoseconds human-readably (µs/ms precision).
func fmtDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtBytesRate(bps float64) string {
	switch {
	case bps >= 1<<20:
		return fmt.Sprintf("%.2f MB/s", bps/(1<<20))
	case bps >= 1<<10:
		return fmt.Sprintf("%.1f KB/s", bps/(1<<10))
	default:
		return fmt.Sprintf("%.0f B/s", bps)
	}
}

// Table renders the report as an aligned plain-text table.
func (r *Report) Table() string {
	var b strings.Builder
	target := "max"
	if r.Spec.Rate > 0 {
		target = fmt.Sprintf("%.0f/s", r.Spec.Rate)
	}
	where := "in-process"
	if r.Spec.Addr != "" {
		where = r.Spec.Addr
	}
	fmt.Fprintf(&b, "omload  broker %s  elapsed %.2fs  target rate %s",
		where, r.Elapsed.Seconds(), target)
	if r.Spec.Chaos != "" {
		fmt.Fprintf(&b, "  chaos %s (seed %d)", r.Spec.Chaos, r.Spec.ChaosSeed)
	}
	fmt.Fprintf(&b, "\npublishers %d  subscribers %d plain / %d scoped / %d converting  payload %d×8B\n\n",
		r.Spec.Publishers, r.Spec.Subscribers, r.Spec.Scoped, r.Spec.Converting, r.Spec.Payload)

	fmt.Fprintf(&b, "%-16s %12d", "published", r.Published)
	if r.PublishErrors > 0 {
		fmt.Fprintf(&b, "   (%d publish errors)", r.PublishErrors)
	}
	fmt.Fprintf(&b, "\n%-16s %12d\n", "delivered", r.Delivered)
	fmt.Fprintf(&b, "%-16s %12d\n", "dropped", r.Dropped)
	fmt.Fprintf(&b, "%-16s %11.1f/s   %s\n", "throughput", r.RecordsPerSec, fmtBytesRate(r.BytesPerSec))
	if r.Behind > 0 {
		fmt.Fprintf(&b, "%-16s %12d   (max lag %s)\n", "behind schedule", r.Behind, fmtDur(int64(r.MaxLag)))
	}

	fmt.Fprintf(&b, "\ne2e latency (publish -> deliver)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %10s\n",
		"class", "count", "p50", "p95", "p99", "p999", "max")
	row := func(name string, l LatencySummary) {
		fmt.Fprintf(&b, "%-12s %10d %10s %10s %10s %10s %10s\n", name, l.Count,
			fmtDur(l.P50), fmtDur(l.P95), fmtDur(l.P99), fmtDur(l.P999), fmtDur(l.Max))
	}
	row("all", r.Latency)
	for _, name := range r.classNames() {
		row(name, r.Classes[name].Latency)
	}

	if len(r.Stages) > 0 {
		fmt.Fprintf(&b, "\nstage share (traced 1-in-%d, self time)\n", r.Spec.SampleEvery)
		var sum float64
		for _, st := range r.Stages {
			fmt.Fprintf(&b, "%-12s %9.1f%% %10s\n", st.Name, st.SharePct, fmtDur(int64(st.Total)))
			sum += st.SharePct
		}
		fmt.Fprintf(&b, "%-12s %9.1f%%\n", "total", sum)
	}

	if a := r.Autopsy; a != nil {
		fmt.Fprintf(&b, "\nslowest-request autopsy (p99 exemplar)\n")
		fmt.Fprintf(&b, "trace %s  e2e %s  (run p99 %s)  spans %d",
			a.TraceID, fmtDur(a.LatencyNS), fmtDur(a.P99NS), a.SpanCount)
		if a.Orphans > 0 {
			fmt.Fprintf(&b, "  orphans %d", a.Orphans)
		}
		fmt.Fprintf(&b, "\n")
		for _, sp := range a.Tree {
			name := sp.Name
			if sp.Detail != "" {
				name += " (" + sp.Detail + ")"
			}
			fmt.Fprintf(&b, "  %s%-*s %10s\n", strings.Repeat("  ", sp.Depth),
				28-2*sp.Depth, name, fmtDur(sp.DurNS))
		}
		for i, st := range a.Stages {
			if i == 0 {
				fmt.Fprintf(&b, "stage breakdown:")
			}
			fmt.Fprintf(&b, " %s %.1f%%", st.Name, st.SharePct)
		}
		if len(a.Stages) > 0 {
			fmt.Fprintf(&b, "\n")
		}
	}
	return b.String()
}

// Markdown renders the report as GitHub-flavored markdown tables.
func (r *Report) Markdown() string {
	var b strings.Builder
	where := "in-process"
	if r.Spec.Addr != "" {
		where = "`" + r.Spec.Addr + "`"
	}
	fmt.Fprintf(&b, "## omload run\n\n")
	fmt.Fprintf(&b, "- broker: %s, elapsed %.2fs\n", where, r.Elapsed.Seconds())
	fmt.Fprintf(&b, "- publishers %d, subscribers %d plain / %d scoped / %d converting\n",
		r.Spec.Publishers, r.Spec.Subscribers, r.Spec.Scoped, r.Spec.Converting)
	fmt.Fprintf(&b, "- published %d, delivered %d, dropped %d, %.1f records/s (%s)\n",
		r.Published, r.Delivered, r.Dropped, r.RecordsPerSec, fmtBytesRate(r.BytesPerSec))
	if r.Behind > 0 {
		fmt.Fprintf(&b, "- behind schedule %d times (max lag %s)\n", r.Behind, fmtDur(int64(r.MaxLag)))
	}
	fmt.Fprintf(&b, "\n| class | count | p50 | p95 | p99 | p999 | max |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
	row := func(name string, l LatencySummary) {
		fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s | %s |\n", name, l.Count,
			fmtDur(l.P50), fmtDur(l.P95), fmtDur(l.P99), fmtDur(l.P999), fmtDur(l.Max))
	}
	row("all", r.Latency)
	for _, name := range r.classNames() {
		row(name, r.Classes[name].Latency)
	}
	if len(r.Stages) > 0 {
		fmt.Fprintf(&b, "\n| stage | share | self time |\n|---|---|---|\n")
		for _, st := range r.Stages {
			fmt.Fprintf(&b, "| %s | %.1f%% | %s |\n", st.Name, st.SharePct, fmtDur(int64(st.Total)))
		}
	}
	if a := r.Autopsy; a != nil {
		fmt.Fprintf(&b, "\n### slowest-request autopsy\n\n")
		fmt.Fprintf(&b, "- trace `%s`: e2e %s against a run p99 of %s (%d spans, %d orphans)\n",
			a.TraceID, fmtDur(a.LatencyNS), fmtDur(a.P99NS), a.SpanCount, a.Orphans)
		if len(a.Tree) > 0 {
			fmt.Fprintf(&b, "\n| span | self+children | depth |\n|---|---|---|\n")
			for _, sp := range a.Tree {
				fmt.Fprintf(&b, "| %s%s | %s | %d |\n",
					strings.Repeat("&nbsp;&nbsp;", sp.Depth), sp.Name, fmtDur(sp.DurNS), sp.Depth)
			}
		}
		if len(a.Stages) > 0 {
			fmt.Fprintf(&b, "\n| stage | share | self time |\n|---|---|---|\n")
			for _, st := range a.Stages {
				fmt.Fprintf(&b, "| %s | %.1f%% | %s |\n", st.Name, st.SharePct, fmtDur(int64(st.Total)))
			}
		}
	}
	return b.String()
}

// Render dispatches on format: "table" (default), "markdown" or "json".
func (r *Report) Render(format string) (string, error) {
	switch format {
	case "", "table":
		return r.Table(), nil
	case "markdown", "md":
		return r.Markdown(), nil
	case "json":
		data, err := r.JSON()
		if err != nil {
			return "", err
		}
		return string(data) + "\n", nil
	default:
		return "", fmt.Errorf("loadgen: unknown output format %q (table, markdown, json)", format)
	}
}
