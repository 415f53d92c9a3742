package pbio_test

import (
	"bytes"
	"testing"

	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// fuzzSeedMetas builds valid metadata images covering strings, dynamic
// arrays and nesting, so the fuzzer starts from the interesting corners of
// the encoding.
func fuzzSeedMetas(f *testing.F) [][]byte {
	f.Helper()
	ctx, err := pbio.NewContext(machine.Sparc)
	if err != nil {
		f.Fatal(err)
	}
	flat, err := ctx.RegisterSpec("Flat", []pbio.FieldSpec{
		{Name: "id", Kind: pbio.String},
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		f.Fatal(err)
	}
	dyn, err := ctx.RegisterSpec("Dyn", []pbio.FieldSpec{
		{Name: "eta", Kind: pbio.Uint, CType: machine.CULong, Dynamic: true, CountField: "eta_count"},
		{Name: "eta_count", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		f.Fatal(err)
	}
	nested, err := ctx.Register("pbio.Nested", []pbio.IOField{
		{Name: "inner", Type: "Flat", Size: flat.Size, Offset: 0},
		{Name: "x", Type: "double", Size: 8, Offset: 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{pbio.MarshalMeta(flat), pbio.MarshalMeta(dyn), pbio.MarshalMeta(nested)}
}

// The x86-64 C types of each element size.
var (
	floatTypes = map[int]machine.CType{4: machine.CFloat, 8: machine.CDouble}
	intTypes   = map[int]machine.CType{1: machine.CChar, 2: machine.CShort, 4: machine.CInt, 8: machine.CLong}
)

// specsFor describes an accepted format's fields for registration on another
// architecture, nested formats first, the way a receiver's own schema would.
func specsFor(ctx *pbio.Context, g *pbio.Format) ([]pbio.FieldSpec, error) {
	specs := make([]pbio.FieldSpec, len(g.Fields))
	for i, fl := range g.Fields {
		specs[i] = pbio.FieldSpec{Name: fl.Name, Kind: fl.Kind, Count: fl.Count, Dynamic: fl.Dynamic, CountField: fl.CountField}
		switch fl.Kind {
		case pbio.Nested:
			inner, err := specsFor(ctx, fl.Nested)
			if err != nil {
				return nil, err
			}
			if _, err := ctx.RegisterSpec(fl.Nested.Name, inner); err != nil {
				return nil, err
			}
			specs[i].NestedName = fl.Nested.Name
		case pbio.Float:
			specs[i].CType = floatTypes[fl.ElemSize]
		case pbio.Int, pbio.Uint, pbio.Char, pbio.Bool:
			specs[i].CType = intTypes[fl.ElemSize]
		}
	}
	return specs, nil
}

// FuzzDecodeFormatMeta throws arbitrary bytes at pbio.UnmarshalMeta. The decoder
// must never panic, and any metadata it accepts must survive a
// re-marshal/re-unmarshal round trip with the format's identity intact —
// the property the event bus relies on when it replays format metadata
// after a reconnect. Accepted metadata must also never panic a decoder: a
// zero-filled record of the format is decoded, and converted to x86-64 by a
// plan compiled against it, which is what a subscriber and the broker do
// with a peer's format.
func FuzzDecodeFormatMeta(f *testing.F) {
	for _, seed := range fuzzSeedMetas(f) {
		f.Add(seed)
		// Truncations and bit flips of valid images probe the error paths.
		f.Add(seed[:len(seed)/2])
		mut := append([]byte(nil), seed...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte("PBF1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := pbio.UnmarshalMeta(data)
		if err != nil {
			return
		}
		again := pbio.MarshalMeta(g)
		h, err := pbio.UnmarshalMeta(again)
		if err != nil {
			t.Fatalf("re-marshal of accepted metadata rejected: %v", err)
		}
		if h.Name != g.Name || h.ID != g.ID || len(h.Fields) != len(g.Fields) {
			t.Fatalf("round trip changed identity: %q/%s/%d fields -> %q/%s/%d fields",
				g.Name, g.ID, len(g.Fields), h.Name, h.ID, len(h.Fields))
		}
		// The canonical form is a fixed point: marshaling again is stable.
		if !bytes.Equal(again, pbio.MarshalMeta(h)) {
			t.Fatal("re-marshal is not a fixed point")
		}
		if g.Size > 1<<16 {
			return // a record of it is more memory than a fuzz worker should take
		}
		zero := make([]byte, g.Size)
		_, _ = g.Decode(zero)
		ctx, err := pbio.NewContext(machine.X86_64)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := specsFor(ctx, g)
		if err != nil {
			return // two nested formats of one name: no one schema describes it
		}
		dst, err := ctx.RegisterSpec(g.Name, specs)
		if err != nil {
			return
		}
		plan, err := dcg.Compile(g, dst)
		if err != nil {
			return
		}
		if out, err := plan.Convert(zero); err == nil {
			if _, err := dst.Decode(out); err != nil {
				t.Fatalf("conversion of a zero record does not decode: %v", err)
			}
		}
	})
}
