package pbio

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"openmeta/internal/machine"
)

// The C layout rules RegisterSpec applies, pinned with the numbers a C
// compiler gives on each architecture.

// asdOffSpecs is Structure A from the paper's Appendix A (Figure 4).
func asdOffSpecs() []FieldSpec {
	return []FieldSpec{
		{Name: "cntrId", Kind: String},
		{Name: "arln", Kind: String},
		{Name: "fltNum", Kind: Int, CType: machine.CInt},
		{Name: "equip", Kind: String},
		{Name: "org", Kind: String},
		{Name: "dest", Kind: String},
		{Name: "off", Kind: Uint, CType: machine.CULong},
		{Name: "eta", Kind: Uint, CType: machine.CULong},
	}
}

func registerSpec(t *testing.T, arch *machine.Arch, specs []FieldSpec) *Format {
	t.Helper()
	f, err := newCtx(t, arch).RegisterSpec("T", specs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func checkOffsets(t *testing.T, f *Format, want []int) {
	t.Helper()
	for i, fl := range f.Fields {
		if fl.Offset != want[i] {
			t.Errorf("field %s offset = %d, want %d", fl.Name, fl.Offset, want[i])
		}
	}
}

func TestSpecLayoutStructureA32(t *testing.T) {
	// On a 32-bit ILP32 arch everything is 4 bytes: no padding at all.
	f := registerSpec(t, machine.X86, asdOffSpecs())
	checkOffsets(t, f, []int{0, 4, 8, 12, 16, 20, 24, 28})
	if f.Size != 32 || f.Align != 4 {
		t.Errorf("size, align = %d, %d, want 32, 4", f.Size, f.Align)
	}
}

func TestSpecLayoutStructureA64(t *testing.T) {
	// On LP64: pointers 8, int 4, unsigned long 8. fltNum at 16, then 4 bytes
	// of padding before the next pointer.
	f := registerSpec(t, machine.X86_64, asdOffSpecs())
	checkOffsets(t, f, []int{0, 8, 16, 24, 32, 40, 48, 56})
	if f.Size != 64 {
		t.Errorf("size = %d, want 64", f.Size)
	}
}

func TestSpecLayoutPaddingBeforeDouble(t *testing.T) {
	// struct { char c; double d; }: the double aligns to 8 on x86-64 and to
	// 4 on i386.
	specs := []FieldSpec{
		{Name: "c", Kind: Char, CType: machine.CChar},
		{Name: "d", Kind: Float, CType: machine.CDouble},
	}
	for _, tt := range []struct {
		arch         *machine.Arch
		offset, size int
	}{{machine.X86_64, 8, 16}, {machine.X86, 4, 12}} {
		f := registerSpec(t, tt.arch, specs)
		if f.Fields[1].Offset != tt.offset || f.Size != tt.size {
			t.Errorf("%s: d offset, size = %d, %d, want %d, %d",
				tt.arch.Name, f.Fields[1].Offset, f.Size, tt.offset, tt.size)
		}
	}
}

func TestSpecLayoutTailPadding(t *testing.T) {
	// struct { double d; char c; } must pad the tail so arrays tile.
	f := registerSpec(t, machine.X86_64, []FieldSpec{
		{Name: "d", Kind: Float, CType: machine.CDouble},
		{Name: "c", Kind: Char, CType: machine.CChar},
	})
	if f.Size != 16 {
		t.Errorf("size = %d, want 16", f.Size)
	}
}

func TestSpecLayoutStaticArray(t *testing.T) {
	// unsigned long off[5] from Structure B.
	f := registerSpec(t, machine.X86, []FieldSpec{
		{Name: "off", Kind: Uint, CType: machine.CULong, Count: 5},
		{Name: "tail", Kind: Char, CType: machine.CChar},
	})
	if f.Fields[0].Slot != 20 {
		t.Errorf("array field size = %d, want 20", f.Fields[0].Slot)
	}
	if f.Fields[1].Offset != 20 {
		t.Errorf("tail offset = %d, want 20", f.Fields[1].Offset)
	}
}

func TestSpecLayoutNestedRecord(t *testing.T) {
	ctx := newCtx(t, machine.X86_64)
	inner, err := ctx.RegisterSpec("Inner", []FieldSpec{
		{Name: "x", Kind: Int, CType: machine.CInt},
		{Name: "y", Kind: Float, CType: machine.CDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner.Size != 16 {
		t.Fatalf("inner size = %d, want 16", inner.Size)
	}
	outer, err := ctx.RegisterSpec("Outer", []FieldSpec{
		{Name: "tag", Kind: Char, CType: machine.CChar},
		{Name: "in", Kind: Nested, NestedName: "Inner"},
		{Name: "z", Kind: Char, CType: machine.CChar},
	})
	if err != nil {
		t.Fatal(err)
	}
	// inner has align 8, so it starts at 8; z at 24; total padded to 32.
	checkOffsets(t, outer, []int{0, 8, 24})
	if outer.Size != 32 {
		t.Errorf("outer size = %d, want 32", outer.Size)
	}
}

func TestSpecLayoutErrors(t *testing.T) {
	ctx := newCtx(t, machine.X86_64)
	if _, err := ctx.RegisterSpec("T", nil); err == nil {
		t.Error("empty record: want error")
	}
	if _, err := ctx.RegisterSpec("T", []FieldSpec{{Name: "bad", Kind: Int}}); err == nil {
		t.Error("field with no C type: want error")
	}
	if _, err := ctx.RegisterSpec("T", []FieldSpec{
		{Name: "bad", Kind: Int, CType: machine.CInt, Count: -1},
	}); err == nil {
		t.Error("negative count: want error")
	}
	if _, err := ctx.RegisterSpec("T", []FieldSpec{
		{Name: "bad", Kind: Int, CType: machine.CType(99)},
	}); err == nil {
		t.Error("unknown CType: want error")
	}
	if _, err := NewContext(&machine.Arch{Name: "bad"}); err == nil {
		t.Error("invalid arch: want error")
	}
	if _, ok := ctx.Lookup("T"); ok {
		t.Error("a rejected spec was registered")
	}
}

// Property: every spec layout respects the invariants a C compiler
// guarantees, on every predefined architecture.
func TestSpecLayoutInvariantsProperty(t *testing.T) {
	var arches []*machine.Arch
	for _, name := range machine.ArchNames() {
		a, err := machine.ArchByName(name)
		if err != nil {
			t.Fatal(err)
		}
		arches = append(arches, a)
	}
	types := []machine.CType{machine.CChar, machine.CUChar, machine.CShort, machine.CUShort,
		machine.CInt, machine.CUInt, machine.CLong, machine.CULong, machine.CLongLong,
		machine.CULongLong, machine.CFloat, machine.CDouble, machine.CPointer}

	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		arch := arches[rng.Intn(len(arches))]
		n := int(nRaw)%12 + 1
		specs := make([]FieldSpec, n)
		aligns := make([]int, n)
		for i := range specs {
			ct := types[rng.Intn(len(types))]
			s := FieldSpec{Name: fmt.Sprintf("f%d", i), CType: ct, Count: rng.Intn(4)}
			switch {
			case ct == machine.CPointer:
				s.Kind, s.CType = String, 0
			case ct.Float():
				s.Kind = Float
			case ct.Signed():
				s.Kind = Int
			default:
				s.Kind = Uint
			}
			specs[i], aligns[i] = s, arch.Align(arch.SizeOf(ct))
		}
		format, err := newCtx(t, arch).RegisterSpec("T", specs)
		if err != nil {
			t.Log(err)
			return false
		}
		prevEnd, align := 0, 1
		for i, fl := range format.Fields {
			if fl.Offset%aligns[i] != 0 || fl.Offset < prevEnd || fl.Offset-prevEnd >= aligns[i] {
				return false // misaligned, overlapping or over-padded
			}
			prevEnd = fl.Offset + fl.Slot
			align = max(align, aligns[i])
		}
		return format.Align == align && format.Size%align == 0 &&
			format.Size >= prevEnd && format.Size-prevEnd < align
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
