package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// setResult is the end-to-end metrics of one full set, by workload.
type setResult map[string]values

// runSet runs every workload untraced and then traced, each in a process of
// its own: peak RSS and the default obsv registry belong to a process, so a
// run must not inherit them from the one before.
func runSet(seed int64, seconds float64, outDir string, out io.Writer) (setResult, bool) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	res, ok := make(setResult), true
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", outDir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			_, _ = out.Write(stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%s: %v\n", w.Name, trace, err)
				ok = false
				continue
			}
			if trace == "1" {
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line struct {
				Metrics map[string]metricJSON `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: result line: %v\n", w.Name, err)
				ok = false
				continue
			}
			res[w.Name] = make(values, len(line.Metrics))
			for name, m := range line.Metrics {
				res[w.Name][name] = m.Value
			}
		}
	}
	return res, ok
}

// runAgree runs two full sets of the same binary and prints, per workload
// and end-to-end metric, both values, how far apart they are and the bound.
// It returns 1 when a pair is further apart than its bound: the benchmark
// then cannot tell such a change from noise.
func runAgree(seed int64, seconds float64, outDir string) int {
	a, okA := runSet(seed, seconds, outDir, io.Discard)
	b, okB := runSet(seed, seconds, outDir, io.Discard)
	if !okA || !okB {
		return 2
	}
	code := 0
	fmt.Printf("%-14s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a[w.Name][d.Name], b[w.Name][d.Name]
			diff := math.Abs(x-y) / math.Max(math.Min(x, y), 1e-12)
			verdict := ""
			if diff > d.Bound {
				verdict, code = "  OUTSIDE", 1
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %7.2f%% %6.1f%%%s\n", w.Name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	return code
}
