package pbio

import (
	"fmt"
	"reflect"
	"testing"

	"openmeta/internal/machine"
)

// Allocation pins for the codec's single points. Each number is the whole
// cost of one call, so a regression in output sizing, in the string builder
// or in slice reuse shows as a count, on any machine.

// mixed is a record shape with every source of variable data: strings, a
// dynamic float array, a dynamic int array.
type mixed struct {
	Seq    int64
	Name   string
	Note   string
	Vals   []float64
	Counts []int64
	Ratio  float32
}

func mixedFormat(t testing.TB, arch *machine.Arch) *Format {
	ctx, err := NewContext(arch)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Mixed", []FieldSpec{
		{Name: "seq", Kind: Int, CType: machine.CLongLong},
		{Name: "name", Kind: String},
		{Name: "note", Kind: String},
		{Name: "vals", Kind: Float, CType: machine.CDouble, Dynamic: true, CountField: "nvals"},
		{Name: "nvals", Kind: Int, CType: machine.CInt},
		{Name: "counts", Kind: Int, CType: machine.CInt, Dynamic: true, CountField: "ncounts"},
		{Name: "ncounts", Kind: Int, CType: machine.CInt},
		{Name: "ratio", Kind: Float, CType: machine.CFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mixedValue() mixed {
	v := mixed{Seq: 7, Name: "departure", Note: "gate B12, pushback on time", Ratio: 0.5}
	for i := 0; i < 100; i++ {
		v.Vals = append(v.Vals, float64(i)/8)
		v.Counts = append(v.Counts, int64(i)-50)
	}
	return v
}

func (v mixed) record() Record {
	return Record{"seq": v.Seq, "name": v.Name, "note": v.Note, "vals": v.Vals, "counts": v.Counts, "ratio": float64(v.Ratio)}
}

func TestEncodeIsOneAllocation(t *testing.T) {
	for _, arch := range []*machine.Arch{machine.X86_64, machine.Sparc} {
		f := mixedFormat(t, arch)
		v := mixedValue()
		rec := v.record()
		b, err := f.Bind(mixed{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Encode(rec); err != nil { // compiles the program
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = f.Encode(rec) }); n != 1 {
			t.Errorf("%s: Format.Encode = %v allocations, want 1 (the output, sized from the record)", arch.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = b.Encode(&v) }); n != 1 {
			t.Errorf("%s: Binding.Encode = %v allocations, want 1", arch.Name, n)
		}
		generic, _ := f.Encode(rec)
		bound, _ := b.Encode(&v)
		if string(generic) != string(bound) {
			t.Errorf("%s: generic and bound encodings differ (%d and %d bytes)", arch.Name, len(generic), len(bound))
		}
		// One allocation because the size is known first, exactly.
		p := f.compiled()
		for name, src := range map[string]goRecord{"generic": {rec: rec}, "bound": {rv: reflect.ValueOf(&v).Elem(), b: b}} {
			if size, err := p.measure(src, p.size); err != nil || size != len(generic) {
				t.Errorf("%s: %s record measured at %d bytes (err %v), encodes to %d", arch.Name, name, size, err, len(generic))
			}
		}
	}
}

func TestBoundDecodeAllocatesOnlyStrings(t *testing.T) {
	f := mixedFormat(t, machine.Sparc64)
	b, err := f.Bind(mixed{})
	if err != nil {
		t.Fatal(err)
	}
	v := mixedValue()
	withStrings, err := b.Encode(&v)
	if err != nil {
		t.Fatal(err)
	}
	v.Name, v.Note = "", ""
	stringFree, err := b.Encode(&v)
	if err != nil {
		t.Fatal(err)
	}
	var out mixed // reused: its slices keep their capacity after the first decode
	for _, tc := range []struct {
		name string
		data []byte
		want float64
	}{
		{"two strings", withStrings, 1},
		{"no strings", stringFree, 0},
	} {
		if err := b.Decode(tc.data, &out); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = b.Decode(tc.data, &out) }); n != tc.want {
			t.Errorf("%s: Binding.Decode into a reused target = %v allocations, want %v", tc.name, n, tc.want)
		}
	}
	if out.Seq != 7 || len(out.Vals) != 100 || out.Counts[0] != -50 {
		t.Errorf("decoded %+v", out)
	}
}

// Registering a spec the context already holds lays the format out, checks
// it and hashes its metadata in 6 allocations, then adopt returns the first
// format. Sorting the fields by offset through reflection cost two more.
func TestRegisterSpecAllocations(t *testing.T) {
	ctx := newCtx(t, machine.X86_64)
	specs := []FieldSpec{
		{Name: "seq", Kind: Int, CType: machine.CLongLong},
		{Name: "name", Kind: String},
		{Name: "vals", Kind: Float, CType: machine.CDouble, Dynamic: true, CountField: "nvals"},
		{Name: "nvals", Kind: Int, CType: machine.CInt},
		{Name: "ratio", Kind: Float, CType: machine.CFloat},
	}
	first, err := ctx.RegisterSpec("Pinned", specs)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if f, err := ctx.RegisterSpec("Pinned", specs); err != nil || f != first {
			t.Fatalf("re-registration = %p, %v; want the first format", f, err)
		}
	})
	if n != 6 {
		t.Errorf("RegisterSpec = %v allocations, want 6", n)
	}
}

// MarshalMeta of a format nesting another collects the two formats on the
// stack and allocates only the image it returns.
func TestMarshalMetaNestedAllocations(t *testing.T) {
	ctx := newCtx(t, machine.X86_64)
	if _, err := ctx.RegisterSpec("Point", []FieldSpec{
		{Name: "x", Kind: Float, CType: machine.CDouble},
		{Name: "y", Kind: Float, CType: machine.CDouble},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("Track", []FieldSpec{
		{Name: "start", Kind: Nested, NestedName: "Point"},
		{Name: "n", Kind: Int, CType: machine.CInt},
		{Name: "waypoints", Kind: Nested, NestedName: "Point", Dynamic: true, CountField: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = MarshalMeta(f) }); n != 1 {
		t.Errorf("MarshalMeta = %v allocations, want 1", n)
	}
}

// Format.Decode takes every string of a record, its bytes and its header,
// from the record's block, which it allocates whether or not a string is set:
// one string or all eight cost nothing beyond what a record with no string
// set pays. With the bytes cut from one arena and the headers from one slab,
// they cost n+1 and n+1; with a header box per string value, n+1+1 and
// n+8+1.
func TestDecodeStringsShareOneAllocation(t *testing.T) {
	ctx := newCtx(t, machine.X86)
	var specs []FieldSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, FieldSpec{Name: fmt.Sprintf("s%d", i), Kind: String})
	}
	f, err := ctx.RegisterSpec("Strings", specs)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(set int) float64 {
		rec := Record{}
		for i := 0; i < set; i++ {
			rec[fmt.Sprintf("s%d", i)] = fmt.Sprintf("value number %d", i)
		}
		data, err := f.Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() { _, _ = f.Decode(data) })
	}
	none, one, all := allocs(0), allocs(1), allocs(8)
	if one != none || all != none {
		t.Errorf("Decode allocations with 0/1/8 strings set = %v/%v/%v, want n, n, n (the bytes in the record's block)", none, one, all)
	}
}
