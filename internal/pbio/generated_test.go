package pbio_test

import (
	"bytes"
	"reflect"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// TestGeneratedSchemasGenericAndBound drives the one encode walk and the one
// decode walk from both of their value sources on generated schemas, on every
// architecture: a generic record round-trips to an equal value, and a struct
// type drawn for the schema — 64-bit fields the bulk kernels fill, narrow
// ones that go through the chunk buffer, Go arrays, nested structs by value
// and by pointer — decodes the same bytes and encodes them back identically,
// passed by pointer or by value.
func TestGeneratedSchemasGenericAndBound(t *testing.T) {
	for _, name := range machine.ArchNames() {
		arch, err := machine.ArchByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 40; seed++ {
			schema := testutil.NewGenSchema(seed)
			ctx, err := pbio.NewContext(arch)
			if err != nil {
				t.Fatal(err)
			}
			f, err := schema.Register(ctx)
			if err != nil {
				t.Fatal(err)
			}
			typ := schema.GoType(seed)
			b, err := f.Bind(reflect.New(typ).Interface())
			if err != nil {
				t.Fatalf("%s seed %d: Bind(%s): %v", name, seed, typ, err)
			}
			for vs := int64(0); vs < 3; vs++ {
				want := schema.Value(vs)
				ndr, err := f.Encode(want)
				if err != nil {
					t.Fatalf("%s seed %d/%d: Encode: %v", name, seed, vs, err)
				}
				if got, err := f.Decode(ndr); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d/%d: generic round trip (err %v)\n got %v\nwant %v", name, seed, vs, err, got, want)
				}
				s := reflect.New(typ)
				if err := b.Decode(ndr, s.Interface()); err != nil {
					t.Fatalf("%s seed %d/%d: Binding.Decode: %v", name, seed, vs, err)
				}
				for how, v := range map[string]interface{}{"pointer": s.Interface(), "value": s.Elem().Interface()} {
					if back, err := b.Encode(v); err != nil || !bytes.Equal(back, ndr) {
						t.Fatalf("%s seed %d/%d: Binding.Encode by %s (err %v) differs from the generic encoding\n got %x\nwant %x",
							name, seed, vs, how, err, back, ndr)
					}
				}
			}
		}
	}
}
