package dcg_test

import (
	"testing"

	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// FuzzConvert runs mutated NDR bytes through compiled plans for two
// architecture pairs — x86-64 to Sparc64 (byte swaps) and SPARC to x86-64
// (swaps and resizes) — over generated schemas with strings, dynamic arrays
// and nesting. A plan must never panic, and a record it accepts must be a
// record the destination format decodes: a broker forwards what Convert
// returns without looking at it again.
func FuzzConvert(f *testing.F) {
	type pair struct {
		plan *dcg.Plan
		dst  *pbio.Format
	}
	var pairs []pair
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
			good, err := formats[0].Encode(schema.Value(int64(i)))
			if err != nil {
				f.Fatal(err)
			}
			which := uint8(len(pairs) - 1)
			f.Add(which, good)
			f.Add(which, good[:len(good)/2])
			for _, at := range []int{0, formats[0].Size / 2, formats[0].Size - 1} {
				mut := append([]byte(nil), good...)
				mut[at] ^= 0xFF
				f.Add(which, mut)
			}
		}
	}
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
