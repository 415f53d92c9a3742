package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// tinyConfig keeps experiment smoke tests fast on CI hardware.
func tinyConfig() Config {
	return Config{Trials: 2, Inner: 3, Seed: 1}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	tables, err := All(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s has no rows", tbl.ID)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Headers) {
				t.Errorf("%s: row %v has %d cells, want %d", tbl.ID, row, len(row), len(tbl.Headers))
			}
		}
		var sb strings.Builder
		if err := tbl.Write(&sb); err != nil {
			t.Errorf("%s: write: %v", tbl.ID, err)
		}
		if !strings.Contains(sb.String(), tbl.ID) {
			t.Errorf("%s: caption missing from output", tbl.ID)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Structure sizes 32 / 52 / 184 and encoded-size parity between paths.
	wantSizes := []string{"32", "52", "184"}
	for i, row := range tbl.Rows {
		if row[1] != wantSizes[i] {
			t.Errorf("row %d struct size = %s, want %s", i, row[1], wantSizes[i])
		}
		if row[2] != row[3] {
			t.Errorf("row %d: encoded sizes differ between PBIO (%s) and xml2wire (%s)",
				i, row[2], row[3])
		}
	}
}

func TestTable7MetadataTaxPositive(t *testing.T) {
	tbl, err := Table7(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[3], "+") {
			t.Errorf("workload %s: metadata tax %q not positive", row[0], row[3])
		}
	}
}

func TestSizeSweepShapes(t *testing.T) {
	cfg := tinyConfig()
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	works, err := SizeSweep(ctx, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(works) != 4 {
		t.Fatalf("workloads = %d", len(works))
	}
	var prev int
	for _, w := range works {
		data, err := w.Format.Encode(w.Record)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(data) <= prev {
			t.Errorf("%s: size %d not larger than previous %d", w.Name, len(data), prev)
		}
		prev = len(data)
		if _, err := w.Format.Decode(data); err != nil {
			t.Fatalf("%s: decode: %v", w.Name, err)
		}
	}
}

func TestMedianAndRatio(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("Median(nil) != 0")
	}
	if got := Median([]time.Duration{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]time.Duration{1, 3}); got != 2 {
		t.Errorf("Median even = %v", got)
	}
	if Ratio(10, 0) != "inf" {
		t.Error("Ratio by zero")
	}
	if Ratio(100, 10) != "10.0x" {
		t.Errorf("Ratio = %s", Ratio(100, 10))
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		1500 * time.Nanosecond: "1.500us",
		2 * time.Millisecond:   "2.000ms",
		3 * time.Second:        "3.000s",
	}
	for d, want := range cases {
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestTimeOpPropagatesError(t *testing.T) {
	wantErr := errors.New("op failed")
	if _, err := TimeOp(0, 0, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
	n := 0
	if _, err := TimeOp(2, 3, func() error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("fn called %d times, want 6", n)
	}
}

func TestByIDNamesTheTables(t *testing.T) {
	if _, err := ByID(9); err != nil {
		t.Fatal(err)
	}
	_, err := ByID(4)
	if err == nil || !strings.Contains(err.Error(), "1, 2, 3, 6, 7, 9") {
		t.Errorf("ByID(4) = %v, want an error naming tables 1, 2, 3, 6, 7, 9", err)
	}
}

// The benchmarks run the ops that cmd/benchtab times, one sub-benchmark per
// op, on the sweep's seed 1.

func BenchmarkTable1Registration(b *testing.B) { runOps(b, table1Ops()) }

func BenchmarkTable2WireFormats(b *testing.B) { runBuiltOps(b, table2Ops) }

func BenchmarkTable3Pipeline(b *testing.B) { runBuiltOps(b, table3Ops) }

func BenchmarkTable6Receive(b *testing.B) { runBuiltOps(b, table6Ops) }

func BenchmarkTable9RegistrationScaling(b *testing.B) { runOps(b, table9Ops()) }

func runBuiltOps(b *testing.B, build func(seed int64) ([]Op, error)) {
	ops, err := build(1)
	if err != nil {
		b.Fatal(err)
	}
	runOps(b, ops)
}

func runOps(b *testing.B, ops []Op) {
	for _, op := range ops {
		b.Run(op.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(op.Bytes))
			for i := 0; i < b.N; i++ {
				if err := op.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
