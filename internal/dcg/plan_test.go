package dcg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// structureB registers the paper's Structure B for the given arch.
func structureB(t *testing.T, arch *machine.Arch) *pbio.Format {
	t.Helper()
	ctx, err := pbio.NewContext(arch)
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

func sampleRecord() pbio.Record {
	return pbio.Record{
		"cntrID": "ZTL", "arln": "DL", "fltNum": int64(1842),
		"equip": "B757", "org": "ATL", "dest": "MCO",
		"off": []uint64{10, 20, 30, 40, 50},
		"eta": []uint64{1000, 2000, 3000},
	}
}

func TestIdentityPlanIsMemcpy(t *testing.T) {
	f := structureB(t, machine.X86_64)
	p, err := Compile(f, f)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Identity || p.Ops() != 0 {
		t.Errorf("same-format plan: Identity=%v Ops=%d", p.Identity, p.Ops())
	}
	src, err := f.Encode(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Error("identity conversion changed bytes")
	}
}

func TestCrossArchConversion(t *testing.T) {
	arches := []*machine.Arch{machine.X86, machine.X86_64, machine.Sparc,
		machine.Sparc64, machine.Legacy16}
	for _, srcArch := range arches {
		for _, dstArch := range arches {
			t.Run(srcArch.Name+"->"+dstArch.Name, func(t *testing.T) {
				srcF := structureB(t, srcArch)
				dstF := structureB(t, dstArch)
				p, err := Compile(srcF, dstF)
				if err != nil {
					t.Fatal(err)
				}
				data, err := srcF.Encode(sampleRecord())
				if err != nil {
					t.Fatal(err)
				}
				conv, err := p.Convert(data)
				if err != nil {
					t.Fatal(err)
				}
				out, err := dstF.Decode(conv)
				if err != nil {
					t.Fatal(err)
				}
				want := sampleRecord()
				for _, k := range []string{"cntrID", "arln", "equip", "org", "dest"} {
					if out[k] != want[k] {
						t.Errorf("%s = %v", k, out[k])
					}
				}
				if out["fltNum"] != int64(1842) {
					t.Errorf("fltNum = %v", out["fltNum"])
				}
				if !reflect.DeepEqual(out["off"], []uint64{10, 20, 30, 40, 50}) {
					t.Errorf("off = %v", out["off"])
				}
				if !reflect.DeepEqual(out["eta"], []uint64{1000, 2000, 3000}) {
					t.Errorf("eta = %v", out["eta"])
				}
			})
		}
	}
}

func TestSameRepDifferentNameNotIdentity(t *testing.T) {
	// Same arch but different formats (field added) must not be identity.
	ctx, _ := pbio.NewContext(machine.X86_64)
	f1, err := ctx.RegisterSpec("V1", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := ctx.RegisterSpec("V2", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
		{Name: "b", Kind: pbio.Float, CType: machine.CDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Identity {
		t.Fatal("different formats reported identity")
	}
	src, _ := f1.Encode(pbio.Record{"a": 5})
	conv, err := p.Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f2.Decode(conv)
	if err != nil {
		t.Fatal(err)
	}
	if out["a"] != int64(5) || out["b"] != 0.0 {
		t.Errorf("evolved conversion: %v", out)
	}
}

func TestEvolutionDropField(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.Sparc)
	f2, err := ctx.RegisterSpec("V2", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
		{Name: "b", Kind: pbio.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, _ := pbio.NewContext(machine.X86_64)
	f1, err := ctx2.RegisterSpec("V1", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(f2, f1)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := f2.Encode(pbio.Record{"a": -3, "b": "dropme"})
	conv, err := p.Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f1.Decode(conv)
	if err != nil {
		t.Fatal(err)
	}
	if out["a"] != int64(-3) {
		t.Errorf("a = %v", out["a"])
	}
	if _, present := out["b"]; present {
		t.Error("dropped field survived")
	}
}

func TestCompileIncompatible(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.X86_64)
	fInt, _ := ctx.RegisterSpec("A", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.Int, CType: machine.CInt},
	})
	fStr, _ := ctx.RegisterSpec("B", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.String},
	})
	if _, err := Compile(fInt, fStr); err == nil {
		t.Error("int->string compile: want error")
	}
	fArr, _ := ctx.RegisterSpec("C", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.Int, CType: machine.CInt, Count: 3},
	})
	if _, err := Compile(fInt, fArr); err == nil {
		t.Error("scalar->array compile: want error")
	}
}

func TestCoalescedPrefixCopy(t *testing.T) {
	// Two same-arch formats that differ only in a trailing field: the shared
	// prefix must collapse to a single copy instruction.
	ctx, _ := pbio.NewContext(machine.X86_64)
	f1, _ := ctx.RegisterSpec("P1", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "b", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "c", Kind: pbio.Float, CType: machine.CDouble},
	})
	f2, _ := ctx.RegisterSpec("P2", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "b", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "c", Kind: pbio.Float, CType: machine.CDouble},
		{Name: "d", Kind: pbio.Int, CType: machine.CInt},
	})
	p, err := Compile(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops() != 1 {
		t.Errorf("ops = %d, want 1 (coalesced prefix copy)", p.Ops())
	}
	src, _ := f1.Encode(pbio.Record{"a": 1, "b": 2, "c": 3.5})
	conv, err := p.Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := f2.Decode(conv)
	if out["a"] != int64(1) || out["c"] != 3.5 || out["d"] != int64(0) {
		t.Errorf("out = %v", out)
	}
}

func TestNestedConversion(t *testing.T) {
	build := func(arch *machine.Arch) *pbio.Format {
		ctx, _ := pbio.NewContext(arch)
		_, err := ctx.RegisterSpec("Point", []pbio.FieldSpec{
			{Name: "x", Kind: pbio.Float, CType: machine.CDouble},
			{Name: "label", Kind: pbio.String},
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := ctx.RegisterSpec("Path", []pbio.FieldSpec{
			{Name: "id", Kind: pbio.Int, CType: machine.CLong},
			{Name: "start", Kind: pbio.Nested, NestedName: "Point"},
			{Name: "pts", Kind: pbio.Nested, NestedName: "Point", Dynamic: true, CountField: "n"},
			{Name: "n", Kind: pbio.Int, CType: machine.CInt},
			{Name: "corners", Kind: pbio.Nested, NestedName: "Point", Count: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	src := build(machine.Sparc)
	dst := build(machine.X86_64)
	p, err := Compile(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	in := pbio.Record{
		"id":    int64(12),
		"start": pbio.Record{"x": 0.5, "label": "s"},
		"pts": []interface{}{
			pbio.Record{"x": 1.0, "label": "p0"},
			pbio.Record{"x": 2.0, "label": "p1"},
			pbio.Record{"x": 3.0, "label": "p2"},
		},
		"corners": []interface{}{
			pbio.Record{"x": 9.0, "label": "c0"},
			pbio.Record{"x": 8.0, "label": "c1"},
		},
	}
	data, err := src.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := p.Convert(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dst.Decode(conv)
	if err != nil {
		t.Fatal(err)
	}
	if out["id"] != int64(12) {
		t.Errorf("id = %v", out["id"])
	}
	pts, ok := out["pts"].([]pbio.Record)
	if !ok || len(pts) != 3 || pts[2]["label"] != "p2" || pts[1]["x"] != 2.0 {
		t.Errorf("pts = %v", out["pts"])
	}
	corners, ok := out["corners"].([]pbio.Record)
	if !ok || len(corners) != 2 || corners[1]["label"] != "c1" {
		t.Errorf("corners = %v", out["corners"])
	}
}

func TestNaiveMatchesPlan(t *testing.T) {
	src := structureB(t, machine.Sparc)
	dst := structureB(t, machine.X86)
	data, err := src.Encode(sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := p.Convert(data)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Naive(src, dst, data)
	if err != nil {
		t.Fatal(err)
	}
	// Decoded views must agree (byte layouts may differ in var-region
	// ordering, so compare semantically).
	a, err := dst.Decode(planned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Decode(naive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plan and naive disagree:\n%v\n%v", a, b)
	}
}

func TestConvertRejectsBadRecords(t *testing.T) {
	src := structureB(t, machine.Sparc)
	dst := structureB(t, machine.X86_64)
	p, err := Compile(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Convert(make([]byte, 3)); err == nil {
		t.Error("short record: want error")
	}
	good, _ := src.Encode(sampleRecord())
	// Corrupt the eta pointer slot.
	eta, _ := src.FieldByName("eta")
	bad := append([]byte(nil), good...)
	machine.PutUint(bad[eta.Offset:], machine.BigEndian, 4, uint64(len(bad)+5))
	if _, err := p.Convert(bad); err == nil {
		t.Error("bad array ref: want error")
	}
	// Corrupt a string pointer slot.
	bad2 := append([]byte(nil), good...)
	machine.PutUint(bad2[0:], machine.BigEndian, 4, uint64(len(bad2)-1))
	bad2[len(bad2)-1] = 'x' // remove final NUL
	if _, err := p.Convert(bad2); err == nil {
		t.Error("unterminated string: want error")
	}
}

// A 64-bit count of 1<<61 times 8-byte elements wraps the product to zero.
// The plan must reject the record — not return a converted record whose
// count says 1<<61 over no elements, which a broker projecting for a scoped
// subscriber would forward.
func TestConvertRejectsOverflowingCount(t *testing.T) {
	wide := func(arch *machine.Arch) *pbio.Format {
		ctx, err := pbio.NewContext(arch)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ctx.RegisterSpec("Wide", []pbio.FieldSpec{
			{Name: "n", Kind: pbio.Int, CType: machine.CLong},
			{Name: "arr", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "n"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	src, dst := wide(machine.X86_64), wide(machine.Sparc64)
	p, err := Compile(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	good, err := src.Encode(pbio.Record{"arr": []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := src.FieldByName("n")
	for _, count := range []uint64{1 << 61, 1<<61 + 1} {
		bad := append([]byte(nil), good...)
		machine.PutUint(bad[n.Offset:], machine.LittleEndian, 8, count)
		if out, err := p.Convert(bad); err == nil {
			t.Errorf("count %#x: Convert returned a %d-byte record, want an error", count, len(out))
		}
	}
}

func TestCache(t *testing.T) {
	src := structureB(t, machine.Sparc)
	dst := structureB(t, machine.X86_64)
	c := NewCache()
	p1, err := c.Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache returned a different plan")
	}
	if c.Len() != 1 {
		t.Errorf("cache len = %d", c.Len())
	}
	if _, err := c.Plan(dst, src); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("cache len = %d", c.Len())
	}
}

// Property: conversion preserves decoded semantics for random records across
// random arch pairs.
func TestConversionSemanticsProperty(t *testing.T) {
	arches := []*machine.Arch{machine.X86, machine.X86_64, machine.Sparc,
		machine.Sparc64, machine.Legacy16}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		srcF := structureBQuick(arches[rng.Intn(len(arches))])
		dstF := structureBQuick(arches[rng.Intn(len(arches))])
		n := rng.Intn(8)
		eta := make([]uint64, n)
		for i := range eta {
			eta[i] = uint64(uint16(rng.Uint64())) // fits 2-byte longs on legacy16
		}
		in := pbio.Record{
			"cntrID": "Z", "fltNum": int64(int16(rng.Uint64())),
			"off": []uint64{1, 2, 3, 4, 5}, "eta": eta,
		}
		data, err := srcF.Encode(in)
		if err != nil {
			return false
		}
		p, err := Compile(srcF, dstF)
		if err != nil {
			return false
		}
		conv, err := p.Convert(data)
		if err != nil {
			return false
		}
		out, err := dstF.Decode(conv)
		if err != nil {
			return false
		}
		if n == 0 {
			return out["fltNum"] == in["fltNum"] && len(out["eta"].([]uint64)) == 0
		}
		return out["fltNum"] == in["fltNum"] && reflect.DeepEqual(out["eta"], eta)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func structureBQuick(arch *machine.Arch) *pbio.Format {
	ctx, err := pbio.NewContext(arch)
	if err != nil {
		panic(err)
	}
	f, err := ctx.RegisterSpec("ASDOffEvent", []pbio.FieldSpec{
		{Name: "cntrID", Kind: pbio.String},
		{Name: "fltNum", Kind: pbio.Int, CType: machine.CInt},
		{Name: "off", Kind: pbio.Uint, CType: machine.CULong, Count: 5},
		{Name: "eta", Kind: pbio.Uint, CType: machine.CULong, Dynamic: true, CountField: "eta_count"},
		{Name: "eta_count", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		panic(err)
	}
	return f
}

// TestNestedVariableDataSurvivesEvolution converts between two versions of a
// format, on one architecture, that share a nested record holding a string.
// The nested format is byte-identical on both sides, but its string lives in
// the outer record's variable region, which the added fields move: the
// nested slot must be run, not copied.
func TestNestedVariableDataSurvivesEvolution(t *testing.T) {
	inner := []pbio.FieldSpec{
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "s", Kind: pbio.String},
	}
	register := func(outer []pbio.FieldSpec) *pbio.Format {
		ctx, err := pbio.NewContext(machine.X86_64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.RegisterSpec("Inner", inner); err != nil {
			t.Fatal(err)
		}
		f, err := ctx.RegisterSpec("V", outer)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	v1 := register([]pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
		{Name: "in", Kind: pbio.Nested, NestedName: "Inner"},
	})
	v2 := register([]pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
		{Name: "extra", Kind: pbio.String},
		{Name: "in", Kind: pbio.Nested, NestedName: "Inner"},
		{Name: "b", Kind: pbio.Float, CType: machine.CDouble},
	})
	rec := pbio.Record{"a": int64(7), "in": pbio.Record{"n": int64(3), "s": "hello world"}}
	src, err := v1.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := v2.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("converted record is not the destination's own encoding:\n got %x\nwant %x", got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("Convert allocated %d bytes for a %d-byte record", cap(got), len(got))
	}
	out, err := v2.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if in, _ := out["in"].(pbio.Record); in["s"] != "hello world" || in["n"] != int64(3) {
		t.Errorf("in = %v, want n=3 s=%q", out["in"], "hello world")
	}
}
