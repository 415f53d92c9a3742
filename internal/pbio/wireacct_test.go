package pbio

import (
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/obsv"
)

// Per-format wire accounting: encode/decode must attribute records and bytes
// to the format's labeled children in the context's registry.
func TestPerFormatWireAccounting(t *testing.T) {
	reg := obsv.New()
	ctx, err := NewContext(machine.Native, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("point", []FieldSpec{
		{Name: "x", Kind: Int, CType: machine.CInt},
		{Name: "y", Kind: Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode(Record{"x": 1, "y": 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Encode(Record{"x": 3, "y": 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Decode(data); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	cases := map[string]int64{
		`pbio.format.encoded.records{format="point"}`: 2,
		`pbio.format.encoded.bytes{format="point"}`:   2 * int64(len(data)),
		`pbio.format.decoded.records{format="point"}`: 1,
		`pbio.format.decoded.bytes{format="point"}`:   int64(len(data)),
	}
	for k, want := range cases {
		if snap[k] != want {
			t.Errorf("snap[%q] = %d, want %d", k, snap[k], want)
		}
	}
	// Aggregate counters keep counting alongside the labeled families.
	if snap["pbio.encode.calls"] != 2 || snap["pbio.decode.calls"] != 1 {
		t.Errorf("aggregate counters = enc %d dec %d", snap["pbio.encode.calls"], snap["pbio.decode.calls"])
	}
}

// Metadata bytes are attributed per format on both marshal and unmarshal
// (the family lives on the default registry; see metaBytesVec).
func TestMetaBytesPerFormat(t *testing.T) {
	ctx, err := NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("metaAcct", []FieldSpec{
		{Name: "v", Kind: Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	key := `pbio.format.meta.bytes{format="metaAcct"}`
	before := obsv.Default().Snapshot()[key]
	meta := MarshalMeta(f)
	if _, err := UnmarshalMeta(meta); err != nil {
		t.Fatal(err)
	}
	after := obsv.Default().Snapshot()[key]
	if got, want := after-before, int64(2*len(meta)); got != want {
		t.Fatalf("meta bytes delta = %d, want %d (marshal + unmarshal of %d B)", got, want, len(meta))
	}
}

// A format never adopted into a context must stay safely instrumentation-
// free: encode/decode work and report nothing (all-nil facct).
func TestUnadoptedFormatNoAccounting(t *testing.T) {
	ctx, err := NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("orphanSrc", []FieldSpec{
		{Name: "v", Kind: Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := UnmarshalMeta(MarshalMeta(f))
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode(Record{"v": 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Decode(data); err != nil { // unadopted: must not panic
		t.Fatal(err)
	}
}

// Typed traffic is accounted like generic traffic: a bound encode and decode
// move the same four labelled per-format counters, through the codec's one
// accounting point.
func TestPerFormatWireAccountingBound(t *testing.T) {
	reg := obsv.New()
	ctx, err := NewContext(machine.Native, WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("boundPoint", []FieldSpec{
		{Name: "x", Kind: Int, CType: machine.CInt},
		{Name: "label", Kind: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		X     int32
		Label string
	}
	b, err := f.Bind(point{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.Encode(&point{X: 1, Label: "p"})
	if err != nil {
		t.Fatal(err)
	}
	var out point
	if err := b.Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if err := b.Decode(data[:3], &out); err == nil { // a failed decode counts nothing
		t.Fatal("truncated record decoded")
	}
	snap := reg.Snapshot()
	for k, want := range map[string]int64{
		`pbio.format.encoded.records{format="boundPoint"}`: 1,
		`pbio.format.encoded.bytes{format="boundPoint"}`:   int64(len(data)),
		`pbio.format.decoded.records{format="boundPoint"}`: 1,
		`pbio.format.decoded.bytes{format="boundPoint"}`:   int64(len(data)),
		"pbio.encode.calls": 1,
		"pbio.decode.calls": 1,
	} {
		if snap[k] != want {
			t.Errorf("snap[%q] = %d, want %d", k, snap[k], want)
		}
	}
}
