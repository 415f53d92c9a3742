package pbio_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"openmeta/internal/bench"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// fuzzFormat is one format the record fuzzers decode under: valid metadata,
// a binding that carries every field at full width (so the generic and the
// bound decoder have the same verdict to give), and well-formed records to
// start mutating from.
type fuzzFormat struct {
	format  *pbio.Format
	binding *pbio.Binding
	seeds   [][]byte
}

// wideStruct builds a struct type that binds every field of f without
// narrowing: 64-bit numbers, slices for arrays, nested structs.
func wideStruct(f *pbio.Format) reflect.Type {
	fields := make([]reflect.StructField, len(f.Fields))
	for i := range f.Fields {
		fl := &f.Fields[i]
		var t reflect.Type
		switch fl.Kind {
		case pbio.Int, pbio.Char:
			t = reflect.TypeOf(int64(0))
		case pbio.Uint:
			t = reflect.TypeOf(uint64(0))
		case pbio.Float:
			t = reflect.TypeOf(float64(0))
		case pbio.Bool:
			t = reflect.TypeOf(false)
		case pbio.String:
			t = reflect.TypeOf("")
		default:
			t = wideStruct(fl.Nested)
		}
		if fl.Dynamic || fl.Count > 1 {
			t = reflect.SliceOf(t)
		}
		fields[i] = reflect.StructField{
			Name: fmt.Sprintf("F%d", i), Type: t,
			Tag: reflect.StructTag(fmt.Sprintf(`pbio:"%s"`, fl.Name)),
		}
	}
	return reflect.StructOf(fields)
}

// fuzzFormats returns the paper's three Appendix A structures on SPARC with
// their golden records, a record with an 8-byte count field (the overflow
// case of the hostile table) and generated schemas on every architecture.
func fuzzFormats(tb testing.TB) []fuzzFormat {
	var out []fuzzFormat
	add := func(f *pbio.Format, seeds ...[]byte) {
		b, err := f.Bind(reflect.New(wideStruct(f)).Interface())
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, fuzzFormat{f, b, seeds})
	}
	for i, c := range bench.RegistrationCases() {
		ctx, err := pbio.NewContext(machine.Sparc)
		if err != nil {
			tb.Fatal(err)
		}
		var f *pbio.Format
		for _, nf := range c.Formats {
			if f, err = ctx.Register(nf.Name, nf.Fields); err != nil {
				tb.Fatal(err)
			}
		}
		golden, err := os.ReadFile(filepath.Join("testdata", goldenSlugs[i]+".ndr.golden"))
		if err != nil {
			tb.Fatal(err)
		}
		add(f, golden)
	}
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		tb.Fatal(err)
	}
	wide, err := ctx.RegisterSpec("Wide", []pbio.FieldSpec{
		{Name: "n", Kind: pbio.Int, CType: machine.CLong},
		{Name: "arr", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "n"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	good, err := wide.Encode(pbio.Record{"arr": []float64{1, 2, 3}})
	if err != nil {
		tb.Fatal(err)
	}
	overflow := append([]byte(nil), good...)
	machine.PutUint(overflow, machine.LittleEndian, 8, 1<<61)
	add(wide, good, overflow)
	for i, name := range machine.ArchNames() {
		arch, err := machine.ArchByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		if ctx, err = pbio.NewContext(arch); err != nil {
			tb.Fatal(err)
		}
		schema := testutil.NewGenSchema(int64(100 + i))
		f, err := schema.Register(ctx)
		if err != nil {
			tb.Fatal(err)
		}
		rec, err := f.Encode(schema.Value(0))
		if err != nil {
			tb.Fatal(err)
		}
		add(f, rec)
	}
	return out
}

// FuzzDecodeRecord mutates NDR bytes under valid metadata. Neither decoder
// may panic; the generic and the bound decoder must agree on whether the
// record is acceptable (they share the program's one validation); a generic
// record that decodes must match its heap-boxed copy (its values sit in a
// block); and it must re-encode, to a canonical form that is stable under a
// further decode and encode.
func FuzzDecodeRecord(f *testing.F) {
	formats := fuzzFormats(f)
	for i, ff := range formats {
		for _, seed := range ff.seeds {
			f.Add(uint8(i), seed)
			f.Add(uint8(i), seed[:len(seed)/2])
			for _, at := range []int{0, len(seed) / 3, ff.format.Size - 1} {
				mut := append([]byte(nil), seed...)
				mut[at] ^= 0xFF
				f.Add(uint8(i), mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		ff := formats[int(which)%len(formats)]
		rec, err := ff.format.Decode(data)
		bound := reflect.New(ff.binding.Type)
		if berr := ff.binding.Decode(data, bound.Interface()); (err == nil) != (berr == nil) {
			t.Fatalf("%s: Format.Decode err = %v, Binding.Decode err = %v", ff.format.Name, err, berr)
		}
		if err != nil {
			return
		}
		testutil.CheckReboxed(t, ff.format.Name, rec)
		canon, err := ff.format.Encode(rec)
		if err != nil {
			t.Fatalf("%s: decoded record does not re-encode: %v", ff.format.Name, err)
		}
		if fromBound, err := ff.binding.Encode(bound.Interface()); err != nil || !bytes.Equal(fromBound, canon) {
			t.Fatalf("%s: bound re-encode (err %v) differs from generic re-encode", ff.format.Name, err)
		}
		again, err := ff.format.Decode(canon)
		if err != nil {
			t.Fatalf("%s: canonical form does not decode: %v", ff.format.Name, err)
		}
		if twice, err := ff.format.Encode(again); err != nil || !bytes.Equal(twice, canon) {
			t.Fatalf("%s: canonical form is not stable under decode and encode (err %v)", ff.format.Name, err)
		}
	})
}
