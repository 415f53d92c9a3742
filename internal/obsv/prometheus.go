package obsv

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
)

// MetricsHandler serves the registry in the Prometheus text exposition
// format (version 0.0.4), mounted at /metrics by DebugMux. Counters and
// gauges map directly; a Histogram is exported with cumulative _bucket
// series whose le bounds are the histogram's power-of-two bucket upper
// bounds (bucket i covers [2^(i-1), 2^i), so le="2^i - 1"), plus the usual
// _sum and _count. Snapshot functions are exported as gauges. Instrument
// names are sanitized for Prometheus ("." and "-" become "_").
//
// Clients that send an Accept header naming application/openmetrics-text get
// the OpenMetrics dialect instead: the same series with counter samples named
// <family>_total, a trailing # EOF marker, and — only on histogram _bucket
// lines whose bucket holds an exemplar — the OpenMetrics exemplar suffix
// # {trace_id="<hex>"} <value> <unix seconds>, linking the bucket to a real
// traced request.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		openMetrics := strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text")
		if openMetrics {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		}
		var b strings.Builder
		r.writePrometheus(&b, openMetrics)
		if openMetrics {
			b.WriteString("# EOF\n")
		}
		_, _ = w.Write([]byte(b.String()))
	})
}

func (r *Registry) writePrometheus(b *strings.Builder, openMetrics bool) {
	if r == nil {
		return
	}
	in := r.copyInstruments()
	// OpenMetrics names a counter's sample <family>_total; the family name
	// in # TYPE stays bare. Prometheus 0.0.4 uses the bare name for both.
	total := ""
	if openMetrics {
		total = "_total"
	}
	for _, n := range sortedKeys(in.counters) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s counter\n%s%s %d\n", pn, pn, total, in.counters[n].Load())
	}
	for _, n := range sortedKeys(in.counterVecs) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s counter\n", pn)
		for _, c := range in.counterVecs[n].v.children() {
			fmt.Fprintf(b, "%s%s%s %d\n", pn, total, c.labels.String(), c.inst.Load())
		}
	}
	for _, n := range sortedKeys(in.gauges) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", pn, pn, in.gauges[n].Load())
	}
	for _, n := range sortedKeys(in.gaugeVecs) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n", pn)
		for _, c := range in.gaugeVecs[n].v.children() {
			fmt.Fprintf(b, "%s%s %d\n", pn, c.labels.String(), c.inst.Load())
		}
	}
	for _, n := range sortedKeys(in.funcs) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", pn, pn, in.funcs[n]())
	}
	for _, n := range sortedKeys(in.hists) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s histogram\n", pn)
		writePromHistogram(b, pn, in.hists[n], openMetrics)
	}
}

// writePromHistogram emits one histogram series in the
// text exposition format: cumulative _bucket lines with power-of-two le
// bounds up to the highest populated bucket, +Inf, then _sum and _count. In
// OpenMetrics mode, a bucket line whose bucket holds an exemplar carries the
// exemplar suffix (exemplars attach to _bucket series only).
func writePromHistogram(b *strings.Builder, pn string, h *Histogram, openMetrics bool) {
	v := h.Value()
	last := 0
	for i, c := range v.Buckets {
		if c > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += v.Buckets[i]
		// Upper bound of bucket i is 2^i - 1 (bucket 0 holds zeros);
		// computed in floating point because bucket 64's bound overflows
		// int64.
		le := math.Ldexp(1, i) - 1
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d", pn, le, cum)
		if openMetrics {
			if ex, ok := h.exemplarFor(i); ok {
				fmt.Fprintf(b, " # {trace_id=\"%s\"} %d %d.%09d",
					escapeLabelValue(ex.TraceID), ex.Value,
					ex.TimeUnixNS/1e9, ex.TimeUnixNS%1e9)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", pn, v.Count)
	fmt.Fprintf(b, "%s_sum %d\n", pn, v.Sum)
	fmt.Fprintf(b, "%s_count %d\n", pn, v.Count)
}

// promName maps a registry instrument name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing anything else with "_".
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
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
