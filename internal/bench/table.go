package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Table is one reproduced evaluation artifact: a caption, column headers
// and rows, printed the way the paper lays its tables out.
type Table struct {
	ID      string // "Table 1", "E4", ...
	Caption string
	Headers []string
	Rows    [][]string
	// Notes records shape expectations and caveats, printed under the
	// table.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = FormatDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s. %s\n", t.ID, t.Caption)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// FormatDuration renders a duration with the precision the tables need
// (microseconds with three decimals, matching the paper's milliseconds with
// three decimals at 1000x our resolution).
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.3fus", float64(d.Nanoseconds())/1000)
	}
}

// Median returns the median of the samples (destructively sorts).
func Median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	mid := len(samples) / 2
	if len(samples)%2 == 1 {
		return samples[mid]
	}
	return (samples[mid-1] + samples[mid]) / 2
}

// TimeOp runs fn `trials` times and returns the median duration of one run.
// Each run may itself loop `inner` times; the result is per-inner-op.
func TimeOp(trials, inner int, fn func() error) (time.Duration, error) {
	if trials < 1 {
		trials = 1
	}
	if inner < 1 {
		inner = 1
	}
	samples := make([]time.Duration, 0, trials)
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < inner; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples = append(samples, time.Since(start)/time.Duration(inner))
	}
	return Median(samples), nil
}

// AllocsOp counts the heap allocations of one call of fn: the mean over ten
// calls after a warm-up call, on one processor so that no other goroutine of
// the process is counted in. Unlike a time, the count repeats exactly.
func AllocsOp(fn func() error) (int, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return int(after.Mallocs-before.Mallocs) / runs, nil
}

// Op is one measured operation of a table: the call cmd/benchtab times and
// the package's benchmarks run, under the name both report it by.
type Op struct {
	// Name is the sub-benchmark name: the operation ("NDR/decode",
	// "plan", ...), a slash and the workload.
	Name string
	// Bytes is the size of the message the call handles, for b.SetBytes;
	// 0 where there is none.
	Bytes int
	Run   func() error
}

// result is an Op measured: its median time per call and its allocations
// per call.
type result struct {
	Op
	T      time.Duration
	Allocs int
}

// measure times each op with TimeOp and counts its allocations with
// AllocsOp, keeping the order of ops.
func measure(cfg Config, ops []Op) ([]result, error) {
	res := make([]result, len(ops))
	for i, op := range ops {
		t, err := TimeOp(cfg.Trials, cfg.Inner, op.Run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.Name, err)
		}
		allocs, err := AllocsOp(op.Run)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.Name, err)
		}
		res[i] = result{op, t, allocs}
	}
	return res, nil
}

// nameParts returns the first and the last element of an op's name: the
// codec or path ("NDR", "plan", ...) and the workload.
func nameParts(name string) (op, workload string) {
	op, _, _ = strings.Cut(name, "/")
	return op, name[strings.LastIndexByte(name, '/')+1:]
}

// Ratio formats a speedup factor ("9.8x").
func Ratio(slow, fast time.Duration) string {
	if fast <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(slow)/float64(fast))
}
