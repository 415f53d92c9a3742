package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric. BENCHMARK.json repeats this table for the
// driver; TestBenchmarkJSONMatches keeps the two the same.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports all of them, from the untraced run. Bounds are the share of the
// parent's median a metric may worsen by. Everything timed sits at the cap of
// 0.25 because the sandbox's own run-to-run spread is 3 to 15 %; the counts
// repeat to 0.02 % and carry the tight bounds. README.md has the measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rec_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_tail_us", "us", "lower", 0.25},
	{"cpu_us_per_rec", "us", "lower", 0.25},
	{"allocs_per_rec", "count", "lower", 0.01},
	{"alloc_bytes_per_rec", "B", "lower", 0.01},
	{"wire_bytes_per_rec", "B", "lower", 0.001},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"verified_share", "share", "higher", 0.001},
}

// perLayer are measured only in the traced run, from the harness, around the
// calls into each layer's public functions. A metric that does not apply to
// a workload (dcg on small_plain, eventbus on cold_bind) reads 0.
var perLayer = []metricDef{
	{Name: "pbio.encode_us", Unit: "us", Better: "lower"},
	{Name: "pbio.decode_us", Unit: "us", Better: "lower"},
	{Name: "pbio.encode_iso_ns", Unit: "ns", Better: "lower"},
	{Name: "pbio.decode_iso_ns", Unit: "ns", Better: "lower"},
	{Name: "pbio.decode_iso_allocs", Unit: "count", Better: "lower"},
	{Name: "pbio.ndr_bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "pbio.meta_marshal_us", Unit: "us", Better: "lower"},
	{Name: "pbio.meta_unmarshal_us", Unit: "us", Better: "lower"},
	{Name: "pbio.meta_bytes", Unit: "B", Better: "lower"},
	{Name: "dcg.convert_us", Unit: "us", Better: "lower"},
	{Name: "dcg.convert_iso_ns", Unit: "ns", Better: "lower"},
	{Name: "dcg.compile_us", Unit: "us", Better: "lower"},
	{Name: "dcg.plan_ops", Unit: "count", Better: "lower"},
	{Name: "xmlschema.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.register_us", Unit: "us", Better: "lower"},
	{Name: "eventbus.publish_us", Unit: "us", Better: "lower"},
	{Name: "eventbus.transit_p50_us", Unit: "us", Better: "lower"},
	{Name: "eventbus.transit_p99_us", Unit: "us", Better: "lower"},
	{Name: "eventbus.next_wait_share", Unit: "share", Better: "higher"},
	{Name: "eventbus.frame_overhead_bytes", Unit: "B", Better: "lower"},
	{Name: "broker.published", Unit: "count", Better: "higher"},
	{Name: "broker.delivered", Unit: "count", Better: "higher"},
	{Name: "broker.dropped", Unit: "count", Better: "lower"},
	{Name: "broker.formats_sent", Unit: "count", Better: "lower"},
	{Name: "broker.slow_stalls", Unit: "count", Better: "lower"},
	{Name: "broker.route_p50_us", Unit: "us", Better: "lower"},
	{Name: "broker.route_p99_us", Unit: "us", Better: "lower"},
	{Name: "broker.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "broker.queue_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.pub_blocked_share", Unit: "share", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "harness.lat_samples", Unit: "count", Better: "higher"},
	{Name: "harness.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.fail_share", Unit: "share", Better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"small_plain", "100 B records, same architecture: per-frame cost (framing, broker route and queue, syscalls) dominates; dcg is never called"},
	{"large_convert", "10 KB records converted x86-64 to Sparc64 at the subscriber: bytes dominate, so encode, dcg convert and decode do most of the work"},
	{"fanout_mixed", "1 KB records to a plain, a scoped and a converting subscriber over the typed Bind path: the broker's per-subscriber work and its own dcg use"},
	{"cold_bind", "no broker: schema text to first verified record over 64 generated documents, so xmlschema, core, metadata and dcg compile do all the work"},
}

// values holds the measured metrics of one run, by name.
type values map[string]float64

// print writes every defined metric, by name, with its unit.
func (v values) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.Name, v[d.Name], d.Unit)
	}
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInt64(s []int64) []int64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianFloat(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	if n := len(c); n%2 == 0 {
		return (c[n/2-1] + c[n/2]) / 2
	}
	return c[len(c)/2]
}

// tailShare is the share of deliveries lat_tail_us averages over.
const tailShare = 0.05

// tailMeanUS is the mean of the slowest tailShare of the sorted samples, in
// microseconds. The tail metric is a mean and not a percentile because the
// latency distribution has a step in it: about 1 delivery in 100 meets a
// garbage-collection cycle and takes three times as long. A percentile that
// sits on the step (p99 did, on fanout_mixed) jumps 2.5x when that share
// moves from 0.9 % to 1.1 %, which it does from run to run; the mean over
// the tail moves by a few percent for the same shift.
func tailMeanUS(sorted []int64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := max(1, int(float64(len(sorted))*tailShare))
	var sum int64
	for _, v := range sorted[len(sorted)-k:] {
		sum += v
	}
	return us(sum) / float64(k)
}

// quietQuartile summarises the per-slice values of a timing metric by the
// quartile on its good side: the 25th percentile when lower is better, the
// 75th when higher is. The sandbox's neighbours take the processor away in
// bursts that last seconds (a slice of pingpong then shows a p99 ten times
// the usual one and a third of the records). Interference only ever slows
// the system, so the quiet slices are the ones that show the code, and the
// quartile stays put while up to three slices in four are disturbed. A cost
// the system itself pays in every slice, such as garbage collection, is in
// the quiet slices too.
func quietQuartile(s []float64, higherIsBetter bool) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	if higherIsBetter {
		return c[len(c)-1-len(c)/4]
	}
	return c[len(c)/4]
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
