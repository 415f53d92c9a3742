package testutil

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// AssertLinear fails the test unless run costs linearly in the size of its
// input. gen(n) makes an input whose size is proportional to n. Run on
// gen(16n) may take at most 48 times the time, and allocate at most 48 times
// the bytes, that it takes on gen(n): linear is 16x, quadratic 256x, and the
// gap holds under -race. Each figure is the least of 5 runs, each after a
// warm-up run and a collection, so that a pause in one run does not count;
// the runs at n and at 16n alternate, so that a busy spell on the machine
// falls on both sizes alike. run is only ever called on the input gen made
// last, so gen may set up state that run reads.
func AssertLinear(t testing.TB, gen func(n int) []byte, run func([]byte)) {
	t.Helper()
	const n, limit = 64, 48
	smallTime, largeTime := time.Duration(1<<62), time.Duration(1<<62)
	smallBytes, largeBytes := uint64(1<<63), uint64(1<<63)
	for i := 0; i < 5; i++ {
		took, bytes := cost(gen(n), run)
		smallTime, smallBytes = min(smallTime, took), min(smallBytes, bytes)
		took, bytes = cost(gen(16*n), run)
		largeTime, largeBytes = min(largeTime, took), min(largeBytes, bytes)
	}
	if largeTime > limit*smallTime {
		t.Errorf("16x the input took %.0fx the time (%v against %v), want at most %dx",
			float64(largeTime)/float64(smallTime), largeTime, smallTime, limit)
	}
	if largeBytes > limit*max(smallBytes, 1) {
		t.Errorf("16x the input allocated %.0fx the bytes (%d against %d), want at most %dx",
			float64(largeBytes)/float64(max(smallBytes, 1)), largeBytes, smallBytes, limit)
	}
}

// cost runs run on input once to warm up, then once more after a
// collection, and returns the time and the bytes allocated of that run.
func cost(input []byte, run func([]byte)) (time.Duration, uint64) {
	run(input)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	run(input)
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return took, after.TotalAlloc - before.TotalAlloc
}

// LinearShape is a record shape whose size grows with n, for AssertLinear:
// Make registers its format and returns a record of it.
type LinearShape struct {
	Name string
	Make func(t testing.TB, n int) (*pbio.Format, pbio.Record)
}

// LinearShapes are the shapes every record decoder must decode in linear
// time and space: many fields, long arrays, and arrays of records nested
// deeper with n (which a pre-pass re-run at every level makes quadratic).
var LinearShapes = []LinearShape{
	{"many fields", manyFields},
	{"long arrays", longArrays},
	{"nested arrays", nestedArrays},
}

func linearContext(t testing.TB) *pbio.Context {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func mustRegister(t testing.TB, ctx *pbio.Context, name string, specs []pbio.FieldSpec) *pbio.Format {
	t.Helper()
	f, err := ctx.RegisterSpec(name, specs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// manyFields is 3n fields: n ints, n doubles and n strings.
func manyFields(t testing.TB, n int) (*pbio.Format, pbio.Record) {
	var specs []pbio.FieldSpec
	rec := pbio.Record{}
	for i := 0; i < n; i++ {
		specs = append(specs,
			pbio.FieldSpec{Name: fmt.Sprintf("i%d", i), Kind: pbio.Int, CType: machine.CInt},
			pbio.FieldSpec{Name: fmt.Sprintf("d%d", i), Kind: pbio.Float, CType: machine.CDouble},
			pbio.FieldSpec{Name: fmt.Sprintf("s%d", i), Kind: pbio.String})
		rec[fmt.Sprintf("i%d", i)] = int64(i)
		rec[fmt.Sprintf("d%d", i)] = float64(i) + 0.5
		rec[fmt.Sprintf("s%d", i)] = fmt.Sprintf("string %d", i)
	}
	return mustRegister(t, linearContext(t), "Wide", specs), rec
}

// longArrays is three dynamic arrays of 16n elements each, doubles, ints and
// bools, and a static array of 16n strings.
func longArrays(t testing.TB, n int) (*pbio.Format, pbio.Record) {
	n *= 16
	floats, ints, bools, strs := make([]float64, n), make([]int64, n), make([]bool, n), make([]string, n)
	for i := range floats {
		floats[i], ints[i], bools[i], strs[i] = float64(i)/4, int64(i), i%3 == 0, fmt.Sprint(i)
	}
	specs := []pbio.FieldSpec{}
	for _, a := range []struct {
		name  string
		kind  pbio.Kind
		ctype machine.CType
	}{{"f", pbio.Float, machine.CDouble}, {"i", pbio.Int, machine.CInt}, {"b", pbio.Bool, machine.CChar}} {
		specs = append(specs,
			pbio.FieldSpec{Name: a.name, Kind: a.kind, CType: a.ctype, Dynamic: true, CountField: a.name + "_n"},
			pbio.FieldSpec{Name: a.name + "_n", Kind: pbio.Int, CType: machine.CInt})
	}
	specs = append(specs, pbio.FieldSpec{Name: "s", Kind: pbio.String, Count: n})
	rec := pbio.Record{"f": floats, "i": ints, "b": bools, "s": strs}
	return mustRegister(t, linearContext(t), "Long", specs), rec
}

// nestedArrays is n/4 - 1 levels of records, each with a number, a string
// and a dynamic array holding one record of the next level: 15 and 255 at
// AssertLinear's sizes, as deep as format metadata allows.
func nestedArrays(t testing.TB, n int) (*pbio.Format, pbio.Record) {
	ctx := linearContext(t)
	var f *pbio.Format
	var rec pbio.Record
	for level := n/4 - 2; level >= 0; level-- {
		specs := []pbio.FieldSpec{
			{Name: "x", Kind: pbio.Int, CType: machine.CInt},
			{Name: "s", Kind: pbio.String},
		}
		r := pbio.Record{"x": int64(level), "s": "level"}
		if f != nil {
			specs = append(specs,
				pbio.FieldSpec{Name: "kids", Kind: pbio.Nested, NestedName: f.Name, Dynamic: true, CountField: "kids_n"},
				pbio.FieldSpec{Name: "kids_n", Kind: pbio.Int, CType: machine.CInt})
			r["kids"] = []pbio.Record{rec}
		}
		f, rec = mustRegister(t, ctx, fmt.Sprintf("L%d", level), specs), r
	}
	return f, rec
}
