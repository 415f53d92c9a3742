package dcg_test

import (
	"testing"

	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// evolvedPair registers two versions of one format on x86-64: both nest the
// same record, which holds a string and a dynamic array, and the second adds
// fields around it — so the nested format is identical on both sides while
// its variable data moves.
func evolvedPair(f *testing.F) (v1, v2 *pbio.Format) {
	inner := []pbio.FieldSpec{
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "s", Kind: pbio.String},
		{Name: "xs", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "n"},
	}
	register := func(outer ...pbio.FieldSpec) *pbio.Format {
		ctx, err := pbio.NewContext(machine.X86_64)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := ctx.RegisterSpec("Inner", inner); err != nil {
			f.Fatal(err)
		}
		format, err := ctx.RegisterSpec("V", outer)
		if err != nil {
			f.Fatal(err)
		}
		return format
	}
	a := pbio.FieldSpec{Name: "a", Kind: pbio.Int, CType: machine.CInt}
	in := pbio.FieldSpec{Name: "in", Kind: pbio.Nested, NestedName: "Inner", Count: 2}
	return register(a, in), register(a, pbio.FieldSpec{Name: "extra", Kind: pbio.String}, in,
		pbio.FieldSpec{Name: "b", Kind: pbio.Float, CType: machine.CDouble})
}

// FuzzConvert runs mutated NDR bytes through compiled plans for two
// architecture pairs — x86-64 to Sparc64 (byte swaps) and SPARC to x86-64
// (swaps and resizes) — over generated schemas with strings, dynamic arrays
// and nesting, and through one evolved pair on a single architecture. A plan
// must never panic, and a record it accepts must be a record the destination
// format decodes: a broker forwards what Convert returns without looking at
// it again.
func FuzzConvert(f *testing.F) {
	type pair struct {
		plan *dcg.Plan
		dst  *pbio.Format
	}
	var pairs []pair
	addSeeds := func(src *pbio.Format, rec pbio.Record) {
		good, err := src.Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		which := uint8(len(pairs) - 1)
		f.Add(which, good)
		f.Add(which, good[:len(good)/2])
		for _, at := range []int{0, src.Size / 2, src.Size - 1} {
			mut := append([]byte(nil), good...)
			mut[at] ^= 0xFF
			f.Add(which, mut)
		}
	}
	for i, arches := range [][2]*machine.Arch{{machine.X86_64, machine.Sparc64}, {machine.Sparc, machine.X86_64}} {
		for seed := int64(200); seed < 203; seed++ {
			schema := testutil.NewGenSchema(seed)
			var formats [2]*pbio.Format
			for k, arch := range arches {
				ctx, err := pbio.NewContext(arch)
				if err != nil {
					f.Fatal(err)
				}
				if formats[k], err = schema.Register(ctx); err != nil {
					f.Fatal(err)
				}
			}
			plan, err := dcg.Compile(formats[0], formats[1])
			if err != nil {
				f.Fatal(err)
			}
			pairs = append(pairs, pair{plan, formats[1]})
			addSeeds(formats[0], schema.Value(int64(i)))
		}
	}
	v1, v2 := evolvedPair(f)
	plan, err := dcg.Compile(v1, v2)
	if err != nil {
		f.Fatal(err)
	}
	pairs = append(pairs, pair{plan, v2})
	addSeeds(v1, pbio.Record{"a": 7, "in": []interface{}{
		pbio.Record{"s": "hello world", "xs": []float64{1, 2, 3}},
		pbio.Record{"s": "", "xs": []float64{}},
	}})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		p := pairs[int(which)%len(pairs)]
		out, err := p.plan.Convert(data)
		if err != nil {
			return
		}
		if _, err := p.dst.Decode(out); err != nil {
			t.Fatalf("%s -> %s: accepted a record whose conversion does not decode: %v",
				p.plan.Src.Arch.Name, p.dst.Arch.Name, err)
		}
	})
}
