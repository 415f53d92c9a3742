package pbio

import (
	"errors"
	"reflect"
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
