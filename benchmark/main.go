// Command benchmark is the repository's benchmark: four seeded workloads
// driven through the real broker and codecs, every delivery verified, ten
// end-to-end metrics from an untraced run and a per-layer ledger from a
// traced one. README.md in this directory defines every metric.
//
//	bash benchmark/run.sh --workload small_plain --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh -all -seed 1      # every workload, untraced and traced
//	bash benchmark/run.sh -agree -seed 1    # two full sets, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: what one run measures when
// nothing else is asked for.
const defaultSeconds = 24

// config is what one run needs to know.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	out     io.Writer // human-readable progress and tables
	// wrapConn, when set, wraps every client connection. Only the negative
	// test sets it, to damage a payload on its way to a subscriber.
	wrapConn func(net.Conn) net.Conn
}

// report is one run's result. The whole of it goes to a JSON file under the
// output directory; the contract line on standard output carries only
// correct, attempted, failed and the metrics.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Traced      bool               `json:"traced"`
	Environment environment        `json:"environment"`
	RunSeconds  float64            `json:"run_seconds"`
	Phases      map[string]float64 `json:"phase_seconds"`
	Window      int                `json:"window,omitempty"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Failures    failures           `json:"failures"`
	EndToEnd    values             `json:"end_to_end"`
	PerLayer    values             `json:"per_layer,omitempty"`
	ShareSum    float64            `json:"share_sum_pct,omitempty"`
}

func newReport(workload string, cfg config) *report {
	return &report{
		Workload: workload, Seed: cfg.seed, Traced: cfg.trace,
		Environment: currentEnvironment(), RunSeconds: cfg.seconds.Seconds(),
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one JSON object the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *report) contractLine() ([]byte, error) {
	defs, vals := endToEnd, r.EndToEnd
	if r.Traced {
		defs, vals = perLayer, r.PerLayer
	}
	metrics := make(map[string]metricJSON, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricJSON{Value: vals[d.Name], Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

// runWorkload runs one workload in this process.
func runWorkload(name string, cfg config) (*report, error) {
	if name == "cold_bind" {
		return runCold(cfg)
	}
	spec, ok := busSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return runBus(spec, cfg)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: small_plain, large_convert, fanout_mixed or cold_bind")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		outDir   = flag.String("out", "benchmark/out", "directory for run-*.json and trace-*.json")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, each in a process of its own")
		agree    = flag.Bool("agree", false, "run two full sets and compare them against the bounds")
	)
	flag.Parse()
	// The broker logs every connection it accepts and loses. Fifteen set-ups
	// of that on standard error tell nobody anything.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *agree:
		os.Exit(runAgree(*seed, *seconds, *outDir))
	case *all:
		if _, ok := runSet(*seed, *seconds, *outDir, os.Stdout); !ok {
			os.Exit(1)
		}
		return
	}

	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0, outDir: *outDir, out: os.Stdout}
	os.Exit(execute(*workload, cfg))
}

// execute runs one workload, prints every metric by name with its unit,
// saves the report and ends standard output with the contract line. It
// returns the process's exit code: 0, 1 when a delivery failed, 2 when the
// run could not be made.
func execute(workload string, cfg config) int {
	fmt.Fprintf(cfg.out, "%s seed=%d seconds=%g trace=%t\n", workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	rep, err := runWorkload(workload, cfg)
	if err == nil {
		err = rep.save(cfg.outDir)
	}
	var line []byte
	if err == nil {
		line, err = rep.contractLine()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if rep.Traced {
		fmt.Fprintln(cfg.out, "  per layer:")
		rep.PerLayer.print(cfg.out, perLayer)
		fmt.Fprintln(cfg.out, "  end to end, for reference (the untraced run's values are the ones that count):")
	}
	rep.EndToEnd.print(cfg.out, endToEnd)
	fmt.Fprintf(cfg.out, "%s\n", line)
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d deliveries failed: %+v\n", rep.Failed, rep.Attempted, rep.Failures)
		return 1
	}
	return 0
}

// save writes the full report next to the traces.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if r.Traced {
		kind = "layers"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%s-%s.json", r.Workload, kind)), data, 0o644)
}
