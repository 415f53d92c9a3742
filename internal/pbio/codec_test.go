package pbio

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"openmeta/internal/machine"
)

// sampleASDOff returns a record for Structure B.
func sampleASDOff() Record {
	return Record{
		"cntrID": "ZTL",
		"arln":   "DL",
		"fltNum": int64(1842),
		"equip":  "B757",
		"org":    "ATL",
		"dest":   "MCO",
		"off":    []uint64{10, 20, 30, 40, 50},
		"eta":    []uint64{1000, 2000, 3000},
	}
}

func registerB(t *testing.T, arch *machine.Arch) *Format {
	t.Helper()
	ctx := newCtx(t, arch)
	f, err := ctx.RegisterSpec("ASDOffEvent", []FieldSpec{
		{Name: "cntrID", Kind: String},
		{Name: "arln", Kind: String},
		{Name: "fltNum", Kind: Int, CType: machine.CInt},
		{Name: "equip", Kind: String},
		{Name: "org", Kind: String},
		{Name: "dest", Kind: String},
		{Name: "off", Kind: Uint, CType: machine.CULong, Count: 5},
		{Name: "eta", Kind: Uint, CType: machine.CULong, Dynamic: true, CountField: "eta_count"},
		{Name: "eta_count", Kind: Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEncodeDecodeRoundTripAllArches(t *testing.T) {
	for _, arch := range []*machine.Arch{machine.X86, machine.X86_64, machine.Sparc,
		machine.Sparc64, machine.Legacy16} {
		t.Run(arch.Name, func(t *testing.T) {
			f := registerB(t, arch)
			in := sampleASDOff()
			data, err := f.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := f.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if out["cntrID"] != "ZTL" || out["dest"] != "MCO" {
				t.Errorf("strings: %v %v", out["cntrID"], out["dest"])
			}
			if out["fltNum"] != int64(1842) {
				t.Errorf("fltNum = %v (%T)", out["fltNum"], out["fltNum"])
			}
			if !reflect.DeepEqual(out["off"], []uint64{10, 20, 30, 40, 50}) {
				t.Errorf("off = %v", out["off"])
			}
			if !reflect.DeepEqual(out["eta"], []uint64{1000, 2000, 3000}) {
				t.Errorf("eta = %v", out["eta"])
			}
			// The count field was auto-filled.
			if out["eta_count"] != int64(3) {
				t.Errorf("eta_count = %v", out["eta_count"])
			}
		})
	}
}

func TestEncodeNDRIsNativeLayout(t *testing.T) {
	// The fixed region must be exactly the sender's in-memory layout: field
	// values at their compiler offsets in the sender's byte order.
	ctx := newCtx(t, machine.Sparc)
	f, err := ctx.Register("T", []IOField{
		{Name: "a", Type: "integer", Size: 4, Offset: 0},
		{Name: "b", Type: "unsigned integer", Size: 2, Offset: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode(Record{"a": int64(0x01020304), "b": uint64(0xBEEF)})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size != 8 || len(data) != 8 {
		t.Fatalf("size = %d, encoded = %d", f.Size, len(data))
	}
	want := []byte{0x01, 0x02, 0x03, 0x04, 0xBE, 0xEF, 0, 0}
	if !reflect.DeepEqual(data, want) {
		t.Errorf("NDR bytes = %x, want %x", data, want)
	}

	// Same record on a little-endian machine is byte-swapped — the whole
	// point of transmitting in the sender's natural representation.
	ctxLE := newCtx(t, machine.X86)
	fLE, err := ctxLE.Register("T", []IOField{
		{Name: "a", Type: "integer", Size: 4, Offset: 0},
		{Name: "b", Type: "unsigned integer", Size: 2, Offset: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	dataLE, err := fLE.Encode(Record{"a": int64(0x01020304), "b": uint64(0xBEEF)})
	if err != nil {
		t.Fatal(err)
	}
	wantLE := []byte{0x04, 0x03, 0x02, 0x01, 0xEF, 0xBE, 0, 0}
	if !reflect.DeepEqual(dataLE, wantLE) {
		t.Errorf("LE NDR bytes = %x, want %x", dataLE, wantLE)
	}
}

func TestCrossArchDecode(t *testing.T) {
	// Encode on big-endian 32-bit, decode using the sender's format on any
	// receiver — metadata carries everything needed.
	f := registerB(t, machine.Sparc)
	data, err := f.Encode(sampleASDOff())
	if err != nil {
		t.Fatal(err)
	}
	meta := MarshalMeta(f)
	remote, err := UnmarshalMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	out, err := remote.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if out["fltNum"] != int64(1842) || out["cntrID"] != "ZTL" {
		t.Errorf("cross-arch decode: %v", out)
	}
}

func TestEncodeZeroAndMissingFields(t *testing.T) {
	f := registerB(t, machine.X86_64)
	data, err := f.Encode(Record{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if out["cntrID"] != "" {
		t.Errorf("missing string = %q", out["cntrID"])
	}
	if out["fltNum"] != int64(0) {
		t.Errorf("missing int = %v", out["fltNum"])
	}
	if !reflect.DeepEqual(out["eta"], []uint64{}) {
		t.Errorf("missing dynamic array = %#v", out["eta"])
	}
	if !reflect.DeepEqual(out["off"], []uint64{0, 0, 0, 0, 0}) {
		t.Errorf("missing static array = %v", out["off"])
	}
}

func TestEncodeNested(t *testing.T) {
	ctx := newCtx(t, machine.Sparc64)
	_, err := ctx.RegisterSpec("Point", []FieldSpec{
		{Name: "x", Kind: Float, CType: machine.CDouble},
		{Name: "y", Kind: Float, CType: machine.CDouble},
		{Name: "label", Kind: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Track", []FieldSpec{
		{Name: "id", Kind: Int, CType: machine.CInt},
		{Name: "start", Kind: Nested, NestedName: "Point"},
		{Name: "waypoints", Kind: Nested, NestedName: "Point", Dynamic: true, CountField: "n"},
		{Name: "n", Kind: Int, CType: machine.CInt},
		{Name: "pair", Kind: Nested, NestedName: "Point", Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := Record{
		"id":    7,
		"start": Record{"x": 1.5, "y": -2.5, "label": "origin"},
		"waypoints": []interface{}{
			Record{"x": 3.0, "y": 4.0, "label": "wp1"},
			map[string]interface{}{"x": 5.0, "y": 6.0, "label": "wp2"},
		},
		"pair": []interface{}{
			Record{"x": 7.0, "y": 8.0, "label": "a"},
			Record{"x": 9.0, "y": 10.0, "label": "b"},
		},
	}
	data, err := f.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	start, ok := out["start"].(Record)
	if !ok || start["x"] != 1.5 || start["label"] != "origin" {
		t.Errorf("start = %v", out["start"])
	}
	wps, ok := out["waypoints"].([]Record)
	if !ok || len(wps) != 2 || wps[1]["label"] != "wp2" || wps[0]["y"] != 4.0 {
		t.Errorf("waypoints = %v", out["waypoints"])
	}
	pair, ok := out["pair"].([]Record)
	if !ok || len(pair) != 2 || pair[1]["x"] != 9.0 {
		t.Errorf("pair = %v", out["pair"])
	}
	if out["n"] != int64(2) {
		t.Errorf("n = %v", out["n"])
	}
}

func TestEncodeBoolCharFloat32(t *testing.T) {
	ctx := newCtx(t, machine.X86)
	f, err := ctx.RegisterSpec("Mixed", []FieldSpec{
		{Name: "flag", Kind: Bool, CType: machine.CChar},
		{Name: "letter", Kind: Char, CType: machine.CChar},
		{Name: "ratio", Kind: Float, CType: machine.CFloat},
		{Name: "flags", Kind: Bool, CType: machine.CChar, Count: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode(Record{
		"flag": true, "letter": int64('Z'), "ratio": float32(0.5),
		"flags": []bool{true, false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if out["flag"] != true || out["letter"] != int64('Z') || out["ratio"] != 0.5 {
		t.Errorf("out = %v", out)
	}
	if !reflect.DeepEqual(out["flags"], []bool{true, false, true}) {
		t.Errorf("flags = %v", out["flags"])
	}
}

func TestEncodeStaticStringArray(t *testing.T) {
	ctx := newCtx(t, machine.Sparc)
	f, err := ctx.RegisterSpec("Names", []FieldSpec{
		{Name: "names", Kind: String, Count: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode(Record{"names": []string{"alpha", "beta"}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out["names"], []string{"alpha", "beta", ""}) {
		t.Errorf("names = %v", out["names"])
	}
}

func TestEncodeErrors(t *testing.T) {
	f := registerB(t, machine.X86)
	cases := []struct {
		name string
		rec  Record
		want error
	}{
		{"string with NUL", Record{"cntrID": "a\x00b"}, ErrStringHasNUL},
		{"wrong type for string", Record{"cntrID": 42}, ErrBadValue},
		{"wrong type for int", Record{"fltNum": "x"}, ErrBadValue},
		{"wrong type for array", Record{"off": 42}, ErrBadValue},
		{"static overflow", Record{"off": []uint64{1, 2, 3, 4, 5, 6}}, ErrBadCount},
		{"count mismatch", Record{"eta": []uint64{1}, "eta_count": 5}, ErrBadCount},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := f.Encode(tt.rec)
			if !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestSharedCountFieldConsistency(t *testing.T) {
	ctx := newCtx(t, machine.X86)
	f, err := ctx.RegisterSpec("T", []FieldSpec{
		{Name: "a", Kind: Int, CType: machine.CInt, Dynamic: true, CountField: "n"},
		{Name: "b", Kind: Int, CType: machine.CInt, Dynamic: true, CountField: "n"},
		{Name: "n", Kind: Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Encode(Record{"a": []int64{1, 2}, "b": []int64{1, 2, 3}}); !errors.Is(err, ErrBadCount) {
		t.Errorf("mismatched shared count err = %v", err)
	}
	data, err := f.Encode(Record{"a": []int64{1, 2}, "b": []int64{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out["b"], []int64{3, 4}) {
		t.Errorf("b = %v", out["b"])
	}
}

func TestDecodeErrors(t *testing.T) {
	f := registerB(t, machine.X86)
	good, err := f.Encode(sampleASDOff())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated fixed", func(t *testing.T) {
		if _, err := f.Decode(good[:f.Size-1]); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("string ref out of bounds", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		// cntrID pointer slot at offset 0 (4 bytes LE on x86).
		machine.PutUint(bad[0:], machine.LittleEndian, 4, uint64(len(bad)+100))
		if _, err := f.Decode(bad); !errors.Is(err, ErrBadReference) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("unterminated string", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		// Point cntrID into the string area, then chop the trailing NUL off.
		for i := len(bad) - 1; i >= 0; i-- {
			if bad[i] == 0 {
				bad = bad[:i]
				break
			}
		}
		machine.PutUint(bad[0:], machine.LittleEndian, 4, uint64(len(bad)-2))
		if _, err := f.Decode(bad); !errors.Is(err, ErrBadReference) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("negative dynamic count", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		cf, _ := f.FieldByName("eta_count")
		machine.PutUint(bad[cf.Offset:], machine.LittleEndian, 4, 0xfffffffb) // -5 in 4 bytes
		if _, err := f.Decode(bad); !errors.Is(err, ErrCountMismatch) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("huge dynamic count", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		cf, _ := f.FieldByName("eta_count")
		machine.PutUint(bad[cf.Offset:], machine.LittleEndian, 4, 1<<28)
		if _, err := f.Decode(bad); !errors.Is(err, ErrBadReference) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("count without pointer", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		eta, _ := f.FieldByName("eta")
		machine.PutUint(bad[eta.Offset:], machine.LittleEndian, 4, 0)
		if _, err := f.Decode(bad); !errors.Is(err, ErrCountMismatch) {
			t.Errorf("err = %v", err)
		}
	})
}

// Property: encode/decode round-trips arbitrary records on arbitrary arches.
func TestCodecRoundTripProperty(t *testing.T) {
	arches := []*machine.Arch{machine.X86, machine.X86_64, machine.Sparc,
		machine.Sparc64, machine.Legacy16}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arch := arches[rng.Intn(len(arches))]
		ctx, err := NewContext(arch)
		if err != nil {
			return false
		}
		f, err := ctx.RegisterSpec("P", []FieldSpec{
			{Name: "i8", Kind: Int, CType: machine.CChar},
			{Name: "i16", Kind: Int, CType: machine.CShort},
			{Name: "i64", Kind: Int, CType: machine.CLongLong},
			{Name: "u32", Kind: Uint, CType: machine.CUInt},
			{Name: "d", Kind: Float, CType: machine.CDouble},
			{Name: "s", Kind: String},
			{Name: "arr", Kind: Int, CType: machine.CShort, Dynamic: true, CountField: "n"},
			{Name: "n", Kind: Int, CType: machine.CInt},
		})
		if err != nil {
			return false
		}
		nArr := rng.Intn(10)
		arr := make([]int64, nArr)
		for i := range arr {
			arr[i] = int64(int16(rng.Uint64()))
		}
		// Values must fit the on-arch C types (unsigned int is 2 bytes on
		// the legacy16 profile; wider values truncate exactly as C does).
		uintMask := uint64(1)<<(uint(arch.SizeOf(machine.CUInt))*8) - 1
		in := Record{
			"i8":  int64(int8(rng.Uint64())),
			"i16": int64(int16(rng.Uint64())),
			"i64": int64(rng.Uint64()),
			"u32": rng.Uint64() & uintMask,
			"d":   rng.NormFloat64(),
			"s":   randString(rng),
			"arr": arr,
		}
		data, err := f.Encode(in)
		if err != nil {
			return false
		}
		out, err := f.Decode(data)
		if err != nil {
			return false
		}
		return out["i8"] == in["i8"] && out["i16"] == in["i16"] &&
			out["i64"] == in["i64"] && out["u32"] == in["u32"] &&
			out["d"] == in["d"] && out["s"] == in["s"] &&
			reflect.DeepEqual(out["arr"], arr) && out["n"] == int64(nArr)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func randString(rng *rand.Rand) string {
	n := rng.Intn(20)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(255) + 1) // no NUL
	}
	return string(b)
}

func TestAppendEncodeReuse(t *testing.T) {
	f := registerB(t, machine.X86_64)
	buf := make([]byte, 0, 1024)
	rec := sampleASDOff()
	one, err := f.AppendEncode(buf, rec)
	if err != nil {
		t.Fatal(err)
	}
	n := len(one)
	// Appending a second record after the first must not disturb the first.
	two, err := f.AppendEncode(one, rec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.Decode(two[:n])
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Decode(two[n:])
	if err != nil {
		t.Fatal(err)
	}
	if first["cntrID"] != "ZTL" || second["cntrID"] != "ZTL" {
		t.Error("AppendEncode corrupted records")
	}
}
