package pbio_test

import (
	"fmt"
	"testing"

	"openmeta/internal/bench"
	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// decodeAllocs returns the allocations of one Format.Decode of data.
func decodeAllocs(t *testing.T, f *pbio.Format, data []byte) float64 {
	t.Helper()
	if _, err := f.Decode(data); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() { _, _ = f.Decode(data) })
}

// workloadShape is the record of one bus workload of the repository
// benchmark: seq, sum, doubles, strings, 4-byte ints and an optional dynamic
// double array with its count.
type workloadShape struct {
	name                   string
	ints, dbls, strs, strN int
	arr                    int
}

func (s workloadShape) format(t *testing.T, arch *machine.Arch) *pbio.Format {
	t.Helper()
	ctx, err := pbio.NewContext(arch)
	if err != nil {
		t.Fatal(err)
	}
	specs := []pbio.FieldSpec{
		{Name: "seq", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "sum", Kind: pbio.Float, CType: machine.CDouble},
	}
	for i := 0; i < s.dbls; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("d%d", i), Kind: pbio.Float, CType: machine.CDouble})
	}
	for i := 0; i < s.strs; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("s%d", i), Kind: pbio.String})
	}
	if s.arr > 0 {
		specs = append(specs,
			pbio.FieldSpec{Name: "arr", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "arr_count"},
			pbio.FieldSpec{Name: "arr_count", Kind: pbio.Int, CType: machine.CInt})
	}
	for i := 0; i < s.ints; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("i%d", i), Kind: pbio.Int, CType: machine.CInt})
	}
	f, err := ctx.RegisterSpec(s.name, specs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (s workloadShape) record() pbio.Record {
	rec := pbio.Record{"seq": int64(70001), "sum": 1234.625}
	for i := 0; i < s.ints; i++ {
		rec[fmt.Sprintf("i%d", i)] = int64(-40000 + 997*i)
	}
	for i := 0; i < s.dbls; i++ {
		rec[fmt.Sprintf("d%d", i)] = float64(i)/8 - 300
	}
	for i := 0; i < s.strs; i++ {
		rec[fmt.Sprintf("s%d", i)] = fmt.Sprintf("%0*d", s.strN, i)
	}
	if s.arr > 0 {
		arr := make([]float64, s.arr)
		for i := range arr {
			arr[i] = float64(i) / 8
		}
		rec["arr"] = arr
	}
	return rec
}

// converted encodes rec in format src and converts it to format dst, as the
// benchmark's converting and scoped subscribers receive it.
func converted(t *testing.T, src, dst *pbio.Format, rec pbio.Record) []byte {
	t.Helper()
	data, err := src.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dcg.Compile(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Convert(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFormatDecodeAllocations pins generic Format.Decode on Table 2's
// records and on the record each workload of the repository benchmark
// decodes. A decode allocates the record's map (two allocations, four past
// eight fields, with Go 1.24's maps) and one block for all of its numbers,
// strings and numeric arrays (slab.go); an array of records adds its backing,
// its header and a map per element, whose values come from the same block.
// The comments give the counts before that: with one slab per kind of boxed
// value, one arena for the string bytes and a slice per array; with only the
// numeric scalars in a slab; and with each numeric scalar outside the
// runtime's static boxes (0-255) an allocation of its own.
func TestFormatDecodeAllocations(t *testing.T) {
	got := map[string]float64{}
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	works, err := bench.SizeSweep(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range works {
		data, err := w.Format.Encode(w.Record)
		if err != nil {
			t.Fatal(err)
		}
		got[w.Name] = decodeAllocs(t, w.Format, data)
	}

	small := workloadShape{name: "SmallPlain", ints: 4, dbls: 4, strs: 2, strN: 8}
	f := small.format(t, machine.X86_64)
	data, err := f.Encode(small.record())
	if err != nil {
		t.Fatal(err)
	}
	got["small_plain"] = decodeAllocs(t, f, data)

	large := workloadShape{name: "LargeConvert", ints: 20, dbls: 20, strs: 8, strN: 32, arr: 1200}
	dst := large.format(t, machine.Sparc64)
	got["large_convert"] = decodeAllocs(t, dst, converted(t, large.format(t, machine.X86_64), dst, large.record()))

	fanout := workloadShape{name: "FanoutMixed", ints: 10, dbls: 10, strs: 4, strN: 16, arr: 100}
	src := fanout.format(t, machine.X86_64)
	scoped, err := pbio.DeriveSubset(src, []string{"seq", "d0", "d1"})
	if err != nil {
		t.Fatal(err)
	}
	got["fanout_mixed scoped"] = decodeAllocs(t, scoped, converted(t, src, scoped, fanout.record()))
	dst = fanout.format(t, machine.Sparc64)
	got["fanout_mixed converted"] = decodeAllocs(t, dst, converted(t, src, dst, fanout.record()))

	src, rec := coldDoc(t, machine.X86_64)
	dst, _ = coldDoc(t, machine.Sparc64)
	got["cold_bind document"] = decodeAllocs(t, dst, converted(t, src, dst, rec))

	want := map[string]float64{ // per-kind slabs, numeric slab only, then no slab, in comments
		"mixed100B":              5,  // 7, 8, 15
		"mixed1KB":               5,  // 9, 12, 31
		"mixed10KB":              5,  // 9, 16, 56
		"mixed100KB":             5,  // 9, 16, 56
		"small_plain":            5,  // 7, 8, 17
		"large_convert":          5,  // 9, 16, 58
		"fanout_mixed scoped":    3,  // 3, 3, 5
		"fanout_mixed converted": 5,  // 9, 12, 33
		"cold_bind document":     21, // 29, 39, 58
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: Format.Decode = %v allocations, want %v", name, got[name], w)
		}
	}
}

// coldDoc is a cold_bind document with one field of each kind in the
// benchmark's cycle: every scalar kind, static and dynamic arrays, a nested
// record and an array of nested records.
func coldDoc(t *testing.T, arch *machine.Arch) (*pbio.Format, pbio.Record) {
	t.Helper()
	ctx, err := pbio.NewContext(arch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterSpec("Inner", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
		{Name: "b", Kind: pbio.Float, CType: machine.CDouble},
		{Name: "c", Kind: pbio.String},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Doc", []pbio.FieldSpec{
		{Name: "f00", Kind: pbio.Int, CType: machine.CInt},
		{Name: "f01", Kind: pbio.Float, CType: machine.CDouble},
		{Name: "f02", Kind: pbio.String},
		{Name: "f03", Kind: pbio.Int, CType: machine.CLong},
		{Name: "f04", Kind: pbio.Float, CType: machine.CFloat},
		{Name: "f05", Kind: pbio.Int, CType: machine.CShort},
		{Name: "f06", Kind: pbio.Bool, CType: machine.CChar},
		{Name: "f07", Kind: pbio.Uint, CType: machine.CUInt},
		{Name: "f08", Kind: pbio.Int, CType: machine.CInt, Count: 4},
		{Name: "f09", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "f09_count"},
		{Name: "f09_count", Kind: pbio.Int, CType: machine.CInt},
		{Name: "f10", Kind: pbio.Nested, NestedName: "Inner"},
		{Name: "f11", Kind: pbio.Uint, CType: machine.CUChar},
		{Name: "f12", Kind: pbio.Float, CType: machine.CDouble, Count: 3},
		{Name: "f13", Kind: pbio.Int, CType: machine.CInt, Dynamic: true, CountField: "f13_count"},
		{Name: "f13_count", Kind: pbio.Int, CType: machine.CInt},
		{Name: "f14", Kind: pbio.Int, CType: machine.CChar},
		{Name: "f15", Kind: pbio.Nested, NestedName: "Inner", Dynamic: true, CountField: "f15_count"},
		{Name: "f15_count", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	inner := pbio.Record{"a": int64(-70001), "b": 0.125, "c": "inner6"}
	return f, pbio.Record{
		"f00": int64(123456789), "f01": 1234.625, "f02": "twelve chars", "f03": int64(-1 << 40),
		"f04": 0.375, "f05": int64(-12345), "f06": true, "f07": uint64(4000000000),
		"f08": []int64{100000, -200000, 300000, -400000}, "f09": []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5},
		"f10": inner, "f11": uint64(200), "f12": []float64{0.125, 0.25, 0.5},
		"f13": []int64{1000, 2000, 3000, 4000, 5000, 6000}, "f14": int64(-100),
		"f15": []pbio.Record{inner, inner, inner, inner, inner, inner},
	}
}
