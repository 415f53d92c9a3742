package machine

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// asdOffMembers is Structure A from the paper's Appendix A (Figure 4).
func asdOffMembers() []Member {
	return []Member{
		{Name: "cntrId", Type: CPointer},
		{Name: "arln", Type: CPointer},
		{Name: "fltNum", Type: CInt},
		{Name: "equip", Type: CPointer},
		{Name: "org", Type: CPointer},
		{Name: "dest", Type: CPointer},
		{Name: "off", Type: CULong},
		{Name: "eta", Type: CULong},
	}
}

func TestLayoutStructureA32(t *testing.T) {
	// On a 32-bit ILP32 arch everything is 4 bytes: no padding at all.
	l, err := layOut(X86, asdOffMembers())
	if err != nil {
		t.Fatal(err)
	}
	wantOffsets := []int{0, 4, 8, 12, 16, 20, 24, 28}
	for i, f := range l.Fields {
		if f.Offset != wantOffsets[i] {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.Offset, wantOffsets[i])
		}
	}
	if l.Size != 32 {
		t.Errorf("size = %d, want 32", l.Size)
	}
	if l.Align != 4 {
		t.Errorf("align = %d, want 4", l.Align)
	}
}

func TestLayoutStructureA64(t *testing.T) {
	// On LP64: pointers 8, int 4, unsigned long 8. fltNum at 16, then 4 bytes
	// of padding before the next pointer.
	l, err := layOut(X86_64, asdOffMembers())
	if err != nil {
		t.Fatal(err)
	}
	wantOffsets := []int{0, 8, 16, 24, 32, 40, 48, 56}
	for i, f := range l.Fields {
		if f.Offset != wantOffsets[i] {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.Offset, wantOffsets[i])
		}
	}
	if l.Size != 64 {
		t.Errorf("size = %d, want 64", l.Size)
	}
}

func TestLayoutPaddingBeforeDouble(t *testing.T) {
	// struct { char c; double d; } — the classic padding case.
	l, err := layOut(X86_64, []Member{
		{Name: "c", Type: CChar},
		{Name: "d", Type: CDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Fields[1].Offset != 8 {
		t.Errorf("d offset = %d, want 8", l.Fields[1].Offset)
	}
	if l.Size != 16 {
		t.Errorf("size = %d, want 16", l.Size)
	}
	// On i386 the double aligns to 4.
	l32, err := layOut(X86, []Member{
		{Name: "c", Type: CChar},
		{Name: "d", Type: CDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l32.Fields[1].Offset != 4 {
		t.Errorf("i386 d offset = %d, want 4", l32.Fields[1].Offset)
	}
	if l32.Size != 12 {
		t.Errorf("i386 size = %d, want 12", l32.Size)
	}
}

func TestLayoutTailPadding(t *testing.T) {
	// struct { double d; char c; } must pad the tail so arrays tile.
	l, err := layOut(X86_64, []Member{
		{Name: "d", Type: CDouble},
		{Name: "c", Type: CChar},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Size != 16 {
		t.Errorf("size = %d, want 16", l.Size)
	}
}

func TestLayoutStaticArray(t *testing.T) {
	// unsigned long off[5] from Structure B.
	l, err := layOut(X86, []Member{
		{Name: "off", Type: CULong, Count: 5},
		{Name: "tail", Type: CChar},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Fields[0].Size() != 20 {
		t.Errorf("array field size = %d, want 20", l.Fields[0].Size())
	}
	if l.Fields[1].Offset != 20 {
		t.Errorf("tail offset = %d, want 20", l.Fields[1].Offset)
	}
}

func TestLayoutNestedRecord(t *testing.T) {
	inner, err := layOut(X86_64, []Member{
		{Name: "x", Type: CInt},
		{Name: "y", Type: CDouble},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inner.Size != 16 {
		t.Fatalf("inner size = %d, want 16", inner.Size)
	}
	outer, err := layOut(X86_64, []Member{
		{Name: "tag", Type: CChar},
		{Name: "in", Record: inner},
		{Name: "z", Type: CChar},
	})
	if err != nil {
		t.Fatal(err)
	}
	// inner has align 8, so it starts at 8; z at 24; total padded to 32.
	if outer.Fields[1].Offset != 8 {
		t.Errorf("nested offset = %d, want 8", outer.Fields[1].Offset)
	}
	if outer.Fields[2].Offset != 24 {
		t.Errorf("z offset = %d, want 24", outer.Fields[2].Offset)
	}
	if outer.Size != 32 {
		t.Errorf("outer size = %d, want 32", outer.Size)
	}
}

func TestLayoutNestedArchMismatch(t *testing.T) {
	inner, err := layOut(X86, []Member{{Name: "x", Type: CInt}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = layOut(X86_64, []Member{{Name: "in", Record: inner}})
	if err == nil {
		t.Fatal("nested layout from a different arch should be rejected")
	}
}

func TestLayoutErrors(t *testing.T) {
	if _, err := layOut(X86_64, nil); !errors.Is(err, ErrEmptyRecord) {
		t.Errorf("empty record err = %v, want ErrEmptyRecord", err)
	}
	if _, err := layOut(X86_64, []Member{{Name: "bad"}}); err == nil {
		t.Error("member with no type: want error")
	}
	if _, err := layOut(X86_64, []Member{{Name: "bad", Type: CInt, Count: -1}}); err == nil {
		t.Error("negative count: want error")
	}
	if _, err := layOut(X86_64, []Member{{Name: "bad", Type: CType(99)}}); err == nil {
		t.Error("unknown CType: want error")
	}
	inner, _ := layOut(X86_64, []Member{{Name: "x", Type: CInt}})
	if _, err := layOut(X86_64, []Member{{Name: "bad", Type: CInt, Record: inner}}); err == nil {
		t.Error("both Type and Record set: want error")
	}
	bad := &Arch{Name: "bad"}
	if _, err := layOut(bad, []Member{{Name: "x", Type: CInt}}); err == nil {
		t.Error("invalid arch: want error")
	}
}

func TestFieldByName(t *testing.T) {
	l, err := layOut(X86_64, asdOffMembers())
	if err != nil {
		t.Fatal(err)
	}
	f, ok := l.FieldByName("fltNum")
	if !ok || f.Type != CInt {
		t.Fatalf("FieldByName(fltNum) = %+v, %v", f, ok)
	}
	if _, ok := l.FieldByName("nope"); ok {
		t.Error("FieldByName(nope) found a field")
	}
}

// Property: every layout respects the invariants a C compiler guarantees.
func TestLayoutInvariantsProperty(t *testing.T) {
	arches := []*Arch{X86, X86_64, Sparc, Sparc64, Legacy16}
	types := []CType{CChar, CUChar, CShort, CUShort, CInt, CUInt, CLong,
		CULong, CLongLong, CULongLong, CFloat, CDouble, CPointer}

	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		arch := arches[rng.Intn(len(arches))]
		n := int(nRaw)%12 + 1
		members := make([]Member, n)
		for i := range members {
			members[i] = Member{
				Name:  "f",
				Type:  types[rng.Intn(len(types))],
				Count: rng.Intn(4), // 0..3
			}
		}
		l, err := layOut(arch, members)
		if err != nil {
			return false
		}
		prevEnd := 0
		for _, fl := range l.Fields {
			if fl.Offset%fl.Align != 0 {
				return false // misaligned field
			}
			if fl.Offset < prevEnd {
				return false // overlapping fields
			}
			if fl.Offset-prevEnd >= fl.Align {
				return false // more padding than needed
			}
			prevEnd = fl.Offset + fl.Size()
		}
		if l.Size%l.Align != 0 {
			return false // size must be a multiple of alignment
		}
		if l.Size < prevEnd || l.Size-prevEnd >= l.Align {
			return false // wrong tail padding
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAlignUp(t *testing.T) {
	tests := []struct{ n, align, want int }{
		{0, 4, 0}, {1, 4, 4}, {4, 4, 4}, {5, 4, 8},
		{7, 1, 7}, {7, 0, 7}, {9, 8, 16},
	}
	for _, tt := range tests {
		if got := alignUp(tt.n, tt.align); got != tt.want {
			t.Errorf("alignUp(%d, %d) = %d, want %d", tt.n, tt.align, got, tt.want)
		}
	}
}
