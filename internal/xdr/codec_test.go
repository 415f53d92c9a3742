package xdr

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

func structureB(t *testing.T) *pbio.Format {
	t.Helper()
	ctx, err := pbio.NewContext(machine.Sparc)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("ASDOffEvent", []pbio.FieldSpec{
		{Name: "cntrID", Kind: pbio.String},
		{Name: "arln", Kind: pbio.String},
		{Name: "fltNum", Kind: pbio.Int, CType: machine.CInt},
		{Name: "equip", Kind: pbio.String},
		{Name: "org", Kind: pbio.String},
		{Name: "dest", Kind: pbio.String},
		{Name: "off", Kind: pbio.Uint, CType: machine.CULong, Count: 5},
		{Name: "eta", Kind: pbio.Uint, CType: machine.CULong, Dynamic: true, CountField: "eta_count"},
		{Name: "eta_count", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func sampleRec() pbio.Record {
	return pbio.Record{
		"cntrID": "ZTL", "arln": "DL", "fltNum": int64(1842),
		"equip": "B757", "org": "ATL", "dest": "MCO",
		"off": []uint64{10, 20, 30, 40, 50},
		"eta": []uint64{1000, 2000, 3000},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	f := structureB(t)
	data, err := EncodeRecord(f, sampleRec())
	if err != nil {
		t.Fatal(err)
	}
	if len(data)%4 != 0 {
		t.Errorf("XDR record not 4-aligned: %d", len(data))
	}
	out, err := DecodeRecord(f, data)
	if err != nil {
		t.Fatal(err)
	}
	if out["cntrID"] != "ZTL" || out["fltNum"] != int64(1842) {
		t.Errorf("out = %v", out)
	}
	if !reflect.DeepEqual(out["off"], []uint64{10, 20, 30, 40, 50}) {
		t.Errorf("off = %v", out["off"])
	}
	if !reflect.DeepEqual(out["eta"], []uint64{1000, 2000, 3000}) {
		t.Errorf("eta = %v", out["eta"])
	}
	if out["eta_count"] != int64(3) {
		t.Errorf("eta_count = %v", out["eta_count"])
	}
}

func TestRecordCanonicalSize(t *testing.T) {
	// XDR size is predictable: strings are 4+len+pad, scalars promote to 4.
	f := structureB(t)
	data, err := EncodeRecord(f, sampleRec())
	if err != nil {
		t.Fatal(err)
	}
	// cntrID "ZTL": 4+4; arln "DL": 4+4; fltNum: 4; equip "B757": 4+4;
	// org "ATL": 4+4; dest "MCO": 4+4; off[5]: 20; eta: 4 + 12 = 16.
	want := 8 + 8 + 4 + 8 + 8 + 8 + 20 + 16
	if len(data) != want {
		t.Errorf("encoded size = %d, want %d", len(data), want)
	}
}

func TestRecordNested(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.X86_64)
	if _, err := ctx.RegisterSpec("Point", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.Float, CType: machine.CDouble},
		{Name: "tag", Kind: pbio.String},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Path", []pbio.FieldSpec{
		{Name: "pts", Kind: pbio.Nested, NestedName: "Point", Dynamic: true, CountField: "n"},
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "origin", Kind: pbio.Nested, NestedName: "Point"},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := pbio.Record{
		"pts": []pbio.Record{
			{"x": 1.0, "tag": "a"},
			{"x": 2.0, "tag": "b"},
		},
		"origin": pbio.Record{"x": 0.5, "tag": "o"},
	}
	data, err := EncodeRecord(f, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRecord(f, data)
	if err != nil {
		t.Fatal(err)
	}
	pts := out["pts"].([]pbio.Record)
	if len(pts) != 2 || pts[1]["tag"] != "b" || pts[0]["x"] != 1.0 {
		t.Errorf("pts = %v", out["pts"])
	}
	origin := out["origin"].(pbio.Record)
	if origin["tag"] != "o" {
		t.Errorf("origin = %v", origin)
	}
}

// pathFormat is Path{pts []Point (dynamic), n int}: the smallest record
// whose only payload is a peer-sized array of nested records.
func pathFormat(t testing.TB) *pbio.Format {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterSpec("Point", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.Float, CType: machine.CDouble},
		{Name: "tag", Kind: pbio.String},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Path", []pbio.FieldSpec{
		{Name: "pts", Kind: pbio.Nested, NestedName: "Point", Dynamic: true, CountField: "n"},
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// nestedCountInput is a Path record whose points array claims 1<<24
// elements but carries only the 8 bytes that follow the count.
var nestedCountInput = []byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

// TestXDRNestedCountBounded: a peer-supplied count for an array of nested
// records is checked against the bytes left before anything is allocated
// for it, as it is for every other element kind.
func TestXDRNestedCountBounded(t *testing.T) {
	f := pathFormat(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRecord(f, nestedCountInput)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadLength) {
		t.Errorf("err = %v, want ErrBadLength", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("decode allocated %d bytes for a 12-byte input, want under 64 KB", n)
	}
}

func TestRecordMissingFieldsZero(t *testing.T) {
	f := structureB(t)
	data, err := EncodeRecord(f, pbio.Record{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRecord(f, data)
	if err != nil {
		t.Fatal(err)
	}
	if out["cntrID"] != "" || out["fltNum"] != int64(0) {
		t.Errorf("out = %v", out)
	}
	if !reflect.DeepEqual(out["off"], []uint64{0, 0, 0, 0, 0}) {
		t.Errorf("off = %v", out["off"])
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	f := structureB(t)
	good, _ := EncodeRecord(f, sampleRec())
	if _, err := DecodeRecord(f, good[:len(good)-2]); err == nil {
		t.Error("truncated record accepted")
	}
	if _, err := DecodeRecord(f, append(good, 0, 0, 0, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A huge dynamic count must be rejected before allocation.
	bad := append([]byte(nil), good...)
	// eta length is after 6 strings (8,8 bytes...) — find by recomputing:
	// offset = 8+8+4+8+8+8+20 = 64.
	bad[64], bad[65], bad[66], bad[67] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := DecodeRecord(f, bad); err == nil {
		t.Error("huge count accepted")
	}
}

func TestRecordTypeErrors(t *testing.T) {
	f := structureB(t)
	if _, err := EncodeRecord(f, pbio.Record{"fltNum": "not a number"}); err == nil {
		t.Error("bad int value accepted")
	}
	if _, err := EncodeRecord(f, pbio.Record{"off": "not a slice"}); err == nil {
		t.Error("bad array value accepted")
	}
	if _, err := EncodeRecord(f, pbio.Record{"off": []uint64{1, 2, 3, 4, 5, 6}}); err == nil {
		t.Error("oversized static array accepted")
	}
}

// TestDecodeRecordIsLinear holds DecodeRecord, pre-pass and walk, to linear
// time and bytes on every shape of testutil.LinearShapes.
func TestDecodeRecordIsLinear(t *testing.T) {
	for _, shape := range testutil.LinearShapes {
		t.Run(shape.Name, func(t *testing.T) {
			var f *pbio.Format
			testutil.AssertLinear(t, func(n int) []byte {
				var rec pbio.Record
				f, rec = shape.Make(t, n)
				data, err := EncodeRecord(f, rec)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}, func(data []byte) {
				if _, err := DecodeRecord(f, data); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
