package pbio

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"openmeta/internal/machine"
)

func TestMetaRoundTrip(t *testing.T) {
	f := registerB(t, machine.Sparc)
	meta := MarshalMeta(f)
	g, err := UnmarshalMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != f.Name || g.Size != f.Size || g.Align != f.Align {
		t.Errorf("header changed: %+v vs %+v", g, f)
	}
	if g.ID != f.ID {
		t.Errorf("ID changed: %s vs %s", g.ID, f.ID)
	}
	if g.Arch.Order != machine.BigEndian || g.Arch.PointerSize != 4 {
		t.Errorf("arch = %+v", g.Arch)
	}
	if len(g.Fields) != len(f.Fields) {
		t.Fatalf("field count changed")
	}
	for i := range f.Fields {
		a, b := f.Fields[i], g.Fields[i]
		b.Nested = a.Nested // compared separately
		a.Nested = nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("field %d changed: %+v vs %+v", i, f.Fields[i], g.Fields[i])
		}
	}
}

func TestMetaNestedRoundTrip(t *testing.T) {
	ctx := newCtx(t, machine.Sparc)
	if _, err := ctx.Register("ASDOffEvent", asdOffBIOFields()); err != nil {
		t.Fatal(err)
	}
	three, err := ctx.Register("threeASDOffs", []IOField{
		{Name: "one", Type: "ASDOffEvent", Size: 52, Offset: 0},
		{Name: "bart", Type: "double", Size: 8, Offset: 56},
		{Name: "two", Type: "ASDOffEvent", Size: 52, Offset: 64},
		{Name: "lisa", Type: "double", Size: 8, Offset: 120},
		{Name: "three", Type: "ASDOffEvent", Size: 52, Offset: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalMeta(MarshalMeta(three))
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != three.ID {
		t.Errorf("nested meta ID changed: %s vs %s", g.ID, three.ID)
	}
	one, ok := g.FieldByName("one")
	if !ok || one.Nested == nil || one.Nested.Name != "ASDOffEvent" {
		t.Fatalf("one = %+v", one)
	}
	// The two nested references must share one reconstructed format object.
	two, _ := g.FieldByName("two")
	if one.Nested != two.Nested {
		t.Error("nested formats not deduplicated")
	}
	// And a record must decode through the reconstructed graph.
	src, err := three.Encode(Record{
		"one":  sampleASDOff(),
		"bart": 1.5,
		"two":  sampleASDOff(),
		"lisa": 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	if out["bart"] != 1.5 {
		t.Errorf("bart = %v", out["bart"])
	}
	oneRec, ok := out["one"].(Record)
	if !ok || oneRec["cntrID"] != "ZTL" {
		t.Errorf("one = %v", out["one"])
	}
}

func TestMetaDeterministic(t *testing.T) {
	f := registerB(t, machine.X86_64)
	m1 := MarshalMeta(f)
	m2 := MarshalMeta(f)
	if !reflect.DeepEqual(m1, m2) {
		t.Error("MarshalMeta is not deterministic")
	}
	g, err := UnmarshalMeta(m1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(MarshalMeta(g), m1) {
		t.Error("re-marshaling reconstructed format changes bytes")
	}
}

// roundTrips asserts that f's metadata reconstructs a format with f's name
// and ID.
func roundTrips(t *testing.T, f *Format) {
	t.Helper()
	g, err := UnmarshalMeta(MarshalMeta(f))
	if err != nil {
		t.Fatalf("%.32q: metadata does not round-trip: %v", f.Name, err)
	}
	if g.Name != f.Name || g.ID != f.ID {
		t.Fatalf("%.32q: round trip changed the name or ID (%s vs %s)", f.Name, g.ID, f.ID)
	}
}

// TestRegisterRejectsWhatMetadataCannotCarry: names carry a u16 length, the
// field count is a u16, the format count a byte. A format at each limit
// registers and round-trips; one past it is rejected rather than registered
// with metadata that would wrap.
func TestRegisterRejectsWhatMetadataCannotCarry(t *testing.T) {
	scalar := func(name string) FieldSpec { return FieldSpec{Name: name, Kind: Char, CType: machine.CChar} }
	chars := func(n int) []FieldSpec {
		specs := make([]FieldSpec, n)
		for i := range specs {
			specs[i] = scalar(fmt.Sprint("f", i))
		}
		return specs
	}
	name := func(n int) string { return strings.Repeat("n", n) }
	tooWide := func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeds the metadata limit") }
	longArch := *machine.X86_64
	longArch.Name = name(maxMetaStr + 1)

	for _, tc := range []struct {
		what     string
		arch     *machine.Arch
		name     string
		at, past []FieldSpec // specs at the limit, and one past it
	}{
		{what: "format name", name: name(maxMetaStr), at: chars(1)},
		{what: "format name", name: name(maxMetaStr + 1), past: chars(1)},
		{what: "architecture name", arch: &longArch, name: "A", past: chars(1)},
		{what: "field name", name: "F", at: []FieldSpec{scalar(name(maxMetaStr))}, past: []FieldSpec{scalar(name(maxMetaStr + 1))}},
		{what: "field count", name: "C", at: chars(maxMetaFields), past: chars(maxMetaFields + 1)},
	} {
		arch := tc.arch
		if arch == nil {
			arch = machine.X86_64
		}
		if tc.at != nil {
			f, err := newCtx(t, arch).RegisterSpec(tc.name, tc.at)
			if err != nil {
				t.Fatalf("%s at the limit: %v", tc.what, err)
			}
			roundTrips(t, f)
		}
		if tc.past != nil {
			if _, err := newCtx(t, arch).RegisterSpec(tc.name, tc.past); !tooWide(err) {
				t.Errorf("%s past the limit: err = %.200v", tc.what, err)
			}
		}
	}

	// A chain of formats, each nesting the one before: the 255th depends on
	// 255 formats counting itself, the 256th on one too many.
	ctx := newCtx(t, machine.X86_64)
	prev, err := ctx.RegisterSpec("L0", chars(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maxMetaDeps; i++ {
		if prev, err = ctx.RegisterSpec(fmt.Sprint("L", i), []FieldSpec{{Name: "in", Kind: Nested, NestedName: prev.Name}}); err != nil {
			t.Fatalf("format %d of the chain: %v", i+1, err)
		}
	}
	roundTrips(t, prev)
	if _, err := ctx.RegisterSpec("Lpast", []FieldSpec{{Name: "in", Kind: Nested, NestedName: prev.Name}}); !tooWide(err) {
		t.Errorf("a format depending on 256 formats: err = %v", err)
	}

	// A subset's name joins the names of the fields it keeps.
	wide, err := newCtx(t, machine.X86_64).RegisterSpec("W", []FieldSpec{scalar(name(40000)), scalar(name(40001))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeriveSubset(wide, []string{name(40000), name(40001)}); !tooWide(err) {
		t.Errorf("a subset named past the limit: err = %.200v", err)
	}
}

func TestUnmarshalMetaRejectsCorruption(t *testing.T) {
	f := registerB(t, machine.Sparc)
	good := MarshalMeta(f)

	t.Run("truncation at every length", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			if _, err := UnmarshalMeta(good[:n]); err == nil {
				t.Fatalf("truncated to %d bytes: accepted", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := UnmarshalMeta(bad); !errors.Is(err, ErrBadMeta) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0xAA)
		if _, err := UnmarshalMeta(bad); !errors.Is(err, ErrBadMeta) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("zero formats", func(t *testing.T) {
		bad := append([]byte(nil), good[:5]...)
		bad[4] = 0
		if _, err := UnmarshalMeta(bad); !errors.Is(err, ErrBadMeta) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("random flips stay safe", func(t *testing.T) {
		// Whatever a flipped byte does, it must not produce a format whose
		// fields escape its declared size (decode safety depends on it).
		for i := 5; i < len(good); i++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0xFF
			g, err := UnmarshalMeta(bad)
			if err != nil {
				continue
			}
			for _, fl := range g.Fields {
				if fl.Offset < 0 || fl.Offset+fl.Slot > g.Size {
					t.Fatalf("flip at %d: field %q escapes record", i, fl.Name)
				}
			}
		}
	})
}

func TestSyntheticArchUsableForDecode(t *testing.T) {
	// A format reconstructed from metadata must be able to *encode* too —
	// relays re-encode records they route.
	f := registerB(t, machine.Legacy16)
	g, err := UnmarshalMeta(MarshalMeta(f))
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.Encode(sampleASDOff())
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if out["arln"] != "DL" {
		t.Errorf("arln = %v", out["arln"])
	}
}

func TestUnmarshalMetaRejectsUnreadableArchSizes(t *testing.T) {
	// A peer announcing a pointer size no integer read supports used to be
	// adopted and to panic the first Decode of one of its records; so does
	// every pointer size but 2, 4 and 8, and a max align that is not a power
	// of two up to 16, whatever the fields say.
	f, err := newCtx(t, machine.Sparc).RegisterSpec("S", []FieldSpec{{Name: "s", Kind: String}})
	if err != nil {
		t.Fatal(err)
	}
	good := MarshalMeta(f)
	ptrAt := 4 + 1 + 2 + len("S") + 1                   // magic, count, name, byte order
	fieldAt := ptrAt + 2 + 2 + len("sparc") + 4 + 2 + 2 // max align, arch name, size, align, nfields
	elemAt := fieldAt + 2 + len("s") + 1                // field name, kind
	slotAt := elemAt + 4 + 4 + 1 + 2 + 4                // elem size, count, flags, count field, offset
	if good[ptrAt] != 4 || good[elemAt+3] != 4 || good[slotAt+3] != 4 {
		t.Fatalf("metadata layout moved: % x", good)
	}
	for _, tc := range []struct{ ptr, maxAlign byte }{{3, 4}, {0, 4}, {1, 4}, {16, 4}, {4, 0}, {4, 3}, {4, 32}} {
		bad := append([]byte(nil), good...)
		bad[ptrAt], bad[ptrAt+1] = tc.ptr, tc.maxAlign
		bad[elemAt+3], bad[slotAt+3] = tc.ptr, tc.ptr // a string is one pointer wide
		g, err := UnmarshalMeta(bad)
		if !errors.Is(err, ErrBadMeta) {
			t.Errorf("pointer size %d, max align %d: err = %v, want ErrBadMeta", tc.ptr, tc.maxAlign, err)
		}
		if err == nil {
			_, _ = g.Decode(make([]byte, g.Size))
		}
	}
}
