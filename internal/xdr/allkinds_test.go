package xdr

import (
	"reflect"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// allKindsFormat exercises every field kind in scalar, static-array and
// dynamic-array positions.
func allKindsFormat(t testing.TB) *pbio.Format {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterSpec("P", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.Float, CType: machine.CFloat},
		{Name: "tag", Kind: pbio.String},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("All", []pbio.FieldSpec{
		{Name: "i", Kind: pbio.Int, CType: machine.CInt},
		{Name: "i8", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "u", Kind: pbio.Uint, CType: machine.CUInt},
		{Name: "u8", Kind: pbio.Uint, CType: machine.CULongLong},
		{Name: "fl", Kind: pbio.Float, CType: machine.CFloat},
		{Name: "d", Kind: pbio.Float, CType: machine.CDouble},
		{Name: "b", Kind: pbio.Bool, CType: machine.CChar},
		{Name: "c", Kind: pbio.Char, CType: machine.CChar},
		{Name: "s", Kind: pbio.String},
		{Name: "p", Kind: pbio.Nested, NestedName: "P"},
		{Name: "ints", Kind: pbio.Int, CType: machine.CShort, Count: 3},
		{Name: "bools", Kind: pbio.Bool, CType: machine.CChar, Count: 2},
		{Name: "strs", Kind: pbio.String, Count: 2},
		{Name: "ps", Kind: pbio.Nested, NestedName: "P", Count: 2},
		{Name: "dyn", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "n"},
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "dynPs", Kind: pbio.Nested, NestedName: "P", Dynamic: true, CountField: "m"},
		{Name: "m", Kind: pbio.Int, CType: machine.CInt},
		{Name: "dynStrsOk", Kind: pbio.Bool, CType: machine.CChar, Dynamic: true, CountField: "k"},
		{Name: "k", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func allKindsRecord() pbio.Record {
	return pbio.Record{
		"i": int64(-7), "i8": int64(-1 << 40),
		"u": uint64(4000000000), "u8": uint64(1) << 60,
		"fl": float64(float32(1.25)), "d": 2.5,
		"b": true, "c": int64('z'), "s": "hello",
		"p":     pbio.Record{"x": 0.5, "tag": "pt"},
		"ints":  []int64{-1, 0, 1},
		"bools": []bool{true, false},
		"strs":  []string{"a", "bb"},
		"ps":    []pbio.Record{{"x": 1.0, "tag": "q"}, {"x": 2.0, "tag": "r"}},
		"dyn":   []float64{3.5, 4.5},
		"dynPs": []pbio.Record{{"x": 9.0, "tag": "w"}},
		// Typed via []interface{} to exercise that path too.
		"dynStrsOk": []interface{}{true, true, false},
	}
}

func TestAllKindsXDRRoundTrip(t *testing.T) {
	f := allKindsFormat(t)
	rec := allKindsRecord()
	data, err := EncodeRecord(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRecord(f, data)
	if err != nil {
		t.Fatal(err)
	}
	if out["i"] != int64(-7) || out["i8"] != int64(-1<<40) {
		t.Errorf("ints: %v %v", out["i"], out["i8"])
	}
	if out["u"] != uint64(4000000000) || out["u8"] != uint64(1)<<60 {
		t.Errorf("uints: %v %v", out["u"], out["u8"])
	}
	if out["fl"] != float64(float32(1.25)) || out["d"] != 2.5 {
		t.Errorf("floats: %v %v", out["fl"], out["d"])
	}
	if out["b"] != true || out["c"] != int64('z') || out["s"] != "hello" {
		t.Errorf("scalars: %v %v %v", out["b"], out["c"], out["s"])
	}
	if !reflect.DeepEqual(out["ints"], []int64{-1, 0, 1}) {
		t.Errorf("ints arr: %v", out["ints"])
	}
	if !reflect.DeepEqual(out["bools"], []bool{true, false}) {
		t.Errorf("bools: %v", out["bools"])
	}
	if !reflect.DeepEqual(out["strs"], []string{"a", "bb"}) {
		t.Errorf("strs: %v", out["strs"])
	}
	ps := out["ps"].([]pbio.Record)
	if len(ps) != 2 || ps[1]["tag"] != "r" {
		t.Errorf("ps: %v", out["ps"])
	}
	if !reflect.DeepEqual(out["dyn"], []float64{3.5, 4.5}) || out["n"] != int64(2) {
		t.Errorf("dyn: %v n=%v", out["dyn"], out["n"])
	}
	dynPs := out["dynPs"].([]pbio.Record)
	if len(dynPs) != 1 || dynPs[0]["x"] != 9.0 {
		t.Errorf("dynPs: %v", out["dynPs"])
	}
	if !reflect.DeepEqual(out["dynStrsOk"], []bool{true, true, false}) {
		t.Errorf("dyn bools: %v", out["dynStrsOk"])
	}
}

func TestAllKindsXDRMatchesNDRSemantics(t *testing.T) {
	// XDR decode and NDR decode must agree on every field value.
	f := allKindsFormat(t)
	rec := allKindsRecord()
	ndr, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := f.Decode(ndr)
	if err != nil {
		t.Fatal(err)
	}
	xdrData, err := EncodeRecord(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(f, xdrData)
	if err != nil {
		t.Fatal(err)
	}
	for k, wv := range wantRaw {
		gv, ok := got[k]
		if !ok {
			continue // count fields of dynamic arrays may be implicit in XDR
		}
		// Count fields decode as int64 from XDR regardless of sign kind.
		if !reflect.DeepEqual(gv, wv) && !looseIntEqual(gv, wv) {
			t.Errorf("field %q: XDR %v (%T) != NDR %v (%T)", k, gv, gv, wv, wv)
		}
	}
}

func looseIntEqual(a, b interface{}) bool {
	ai, aok := a.(int64)
	bu, bok := b.(uint64)
	if aok && bok {
		return uint64(ai) == bu
	}
	return false
}

func TestXDRBadNestedValue(t *testing.T) {
	f := allKindsFormat(t)
	if _, err := EncodeRecord(f, pbio.Record{"p": 42}); err == nil {
		t.Error("non-record nested value accepted")
	}
	if _, err := EncodeRecord(f, pbio.Record{"bools": []string{"x"}}); err == nil {
		t.Error("mistyped bool array accepted")
	}
}

func TestXDRMapValueForNested(t *testing.T) {
	f := allKindsFormat(t)
	data, err := EncodeRecord(f, pbio.Record{
		"p": map[string]interface{}{"x": 1.5, "tag": "m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRecord(f, data)
	if err != nil {
		t.Fatal(err)
	}
	if out["p"].(pbio.Record)["tag"] != "m" {
		t.Errorf("p = %v", out["p"])
	}
}
