package xmlwire

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

func allKindsFormat(t testing.TB) *pbio.Format {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterSpec("P", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.Float, CType: machine.CFloat},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("All", []pbio.FieldSpec{
		{Name: "i", Kind: pbio.Int, CType: machine.CInt},
		{Name: "u", Kind: pbio.Uint, CType: machine.CUInt},
		{Name: "fl", Kind: pbio.Float, CType: machine.CFloat},
		{Name: "b", Kind: pbio.Bool, CType: machine.CChar},
		{Name: "c", Kind: pbio.Char, CType: machine.CChar},
		{Name: "s", Kind: pbio.String},
		{Name: "p", Kind: pbio.Nested, NestedName: "P"},
		{Name: "ints", Kind: pbio.Int, CType: machine.CShort, Count: 2},
		{Name: "bools", Kind: pbio.Bool, CType: machine.CChar, Dynamic: true, CountField: "nb"},
		{Name: "nb", Kind: pbio.Int, CType: machine.CInt},
		{Name: "ps", Kind: pbio.Nested, NestedName: "P", Dynamic: true, CountField: "np"},
		{Name: "np", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAllKindsXMLRoundTrip(t *testing.T) {
	f := allKindsFormat(t)
	rec := pbio.Record{
		"i": int64(-3), "u": uint64(7), "fl": float64(float32(1.5)),
		"b": true, "c": int64('q'), "s": "txt",
		"p":     pbio.Record{"x": 0.25},
		"ints":  []int64{5, 6},
		"bools": []bool{false, true},
		"ps":    []pbio.Record{{"x": 1.0}, {"x": 2.0}},
	}
	data, err := EncodeRecord(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRecord(f, data)
	if err != nil {
		t.Fatal(err)
	}
	if out["i"] != int64(-3) || out["u"] != uint64(7) || out["fl"] != float64(float32(1.5)) {
		t.Errorf("numbers: %v %v %v", out["i"], out["u"], out["fl"])
	}
	if out["b"] != true || out["c"] != int64('q') || out["s"] != "txt" {
		t.Errorf("scalars: %v %v %v", out["b"], out["c"], out["s"])
	}
	if out["p"].(pbio.Record)["x"] != 0.25 {
		t.Errorf("p: %v", out["p"])
	}
	if !reflect.DeepEqual(out["ints"], []int64{5, 6}) {
		t.Errorf("ints: %v", out["ints"])
	}
	if !reflect.DeepEqual(out["bools"], []bool{false, true}) || out["nb"] != int64(2) {
		t.Errorf("bools: %v nb=%v", out["bools"], out["nb"])
	}
	ps := out["ps"].([]pbio.Record)
	if len(ps) != 2 || ps[1]["x"] != 2.0 {
		t.Errorf("ps: %v", out["ps"])
	}
}

func TestXMLScalarTextVariants(t *testing.T) {
	f := allKindsFormat(t)
	// Alternate Go types on encode: int, int32, uint32, float32, map nested.
	rec := pbio.Record{
		"i": int(4), "u": uint32(9), "fl": float32(2.5),
		"p":  map[string]interface{}{"x": 1.5},
		"ps": []interface{}{pbio.Record{"x": 3.0}},
	}
	data, err := EncodeRecord(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRecord(f, data)
	if err != nil {
		t.Fatal(err)
	}
	if out["i"] != int64(4) || out["u"] != uint64(9) || out["fl"] != 2.5 {
		t.Errorf("coerced: %v %v %v", out["i"], out["u"], out["fl"])
	}
	if out["p"].(pbio.Record)["x"] != 1.5 {
		t.Errorf("p: %v", out["p"])
	}
}

func TestXMLDecodeKindErrors(t *testing.T) {
	f := allKindsFormat(t)
	good, err := EncodeRecord(f, pbio.Record{})
	if err != nil {
		t.Fatal(err)
	}
	text := string(good)
	cases := []struct{ name, from, to string }{
		{"bad uint", "<u>0</u>", "<u>-1</u>"},
		{"bad float", "<fl>0</fl>", "<fl>zz</fl>"},
		{"bad bool", "<b>false</b>", "<b>maybe</b>"},
		{"nested not element", "<p><P><x>0</x></P></p>", "<p>text</p>"},
		{"nested extra children", "<p><P><x>0</x></P></p>", "<p><P><x>0</x></P><P><x>0</x></P></p>"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			bad := replaceOnce(t, text, tt.from, tt.to)
			if _, err := DecodeRecord(f, []byte(bad)); err == nil {
				t.Errorf("accepted: %s", bad)
			}
		})
	}
}

func replaceOnce(t *testing.T, s, from, to string) string {
	t.Helper()
	i := indexOf(s, from)
	if i < 0 {
		t.Fatalf("fixture missing %q in %s", from, s)
	}
	return s[:i] + to + s[i+len(from):]
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestXMLEncodeBadValues(t *testing.T) {
	f := allKindsFormat(t)
	cases := []pbio.Record{
		{"b": "yes"},
		{"s": 5},
		{"p": "not a record"},
		{"fl": "fast"},
		{"u": []byte{1}},
	}
	for i, rec := range cases {
		if _, err := EncodeRecord(f, rec); err == nil {
			t.Errorf("case %d accepted: %v", i, rec)
		}
	}
}

// TestDecodeSplitTextIsLinear decodes a string a peer split into 20,000 text
// tokens with empty comments. Joining them one concatenation at a time copied
// ~200 MB; the decoder may allocate a few times the document, no more.
func TestDecodeSplitTextIsLinear(t *testing.T) {
	f := allKindsFormat(t)
	data, err := EncodeRecord(f, pbio.Record{"s": "SPLIT"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	doc := []byte(strings.Replace(string(data), "SPLIT", strings.Repeat("a<!---->", n), 1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err := DecodeRecord(f, doc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rec["s"] != strings.Repeat("a", n) {
		t.Fatalf("s: got %d bytes, want %d a's", len(rec["s"].(string)), n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(len(doc)) {
		t.Errorf("decoding %d bytes allocated %d bytes, want at most %d", len(doc), alloc, 8*len(doc))
	}
}

// TestDecodeRecordIsLinear holds DecodeRecord to linear time and bytes on
// every shape of testutil.LinearShapes.
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
