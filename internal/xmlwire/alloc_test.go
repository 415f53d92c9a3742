package xmlwire

import (
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// TestEncodeRecordAllocations pins the cost of XML-text encoding: on a
// 19-field record with every construct the cold path registers — strings,
// static and dynamic arrays, a nested record, an array of nested records —
// the text is built in its output buffer and nowhere else. Formatting each
// number into a string and boxing each array element took 107.
func TestEncodeRecordAllocations(t *testing.T) {
	ctx, err := pbio.NewContext(machine.X86_64)
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
	inner := pbio.Record{"a": int64(-70001), "b": 0.125, "c": "in<&>ner"}
	rec := pbio.Record{
		"f00": int64(123456789), "f01": 1234.625, "f02": "twelve chars", "f03": int64(-1 << 40),
		"f04": 0.375, "f05": int64(-12345), "f06": true, "f07": uint64(4000000000),
		"f08": []int64{100000, -200000, 300000, -400000}, "f09": []float64{1.5, 2.5, 3.5, 4.5, 5.5, 6.5},
		"f09_count": int64(6), "f10": inner, "f11": uint64(200), "f12": []float64{0.125, 0.25, 0.5},
		"f13": []int64{1000, 2000, 3000, 4000, 5000, 6000}, "f13_count": int64(6), "f14": int64(-100),
		"f15": []pbio.Record{inner, inner, inner, inner, inner, inner}, "f15_count": int64(6),
	}
	text, err := EncodeRecord(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := DecodeRecord(f, text); err != nil || back["f02"] != "twelve chars" {
		t.Fatalf("round trip: %v, %v", back, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := EncodeRecord(f, rec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("EncodeRecord: %.0f allocations for %d bytes of text", allocs, len(text))
	if allocs > 3 {
		t.Errorf("EncodeRecord: %.0f allocations, want at most 3", allocs)
	}
}
