package xdr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPrimitiveRoundTrips(t *testing.T) {
	var b []byte
	b = AppendInt32(b, -42)
	b = AppendUint32(b, 0xDEADBEEF)
	b = AppendInt64(b, math.MinInt64)
	b = AppendUint64(b, math.MaxUint64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendFloat32(b, 1.5)
	b = AppendFloat64(b, -2.25)
	b = AppendString(b, "hello")
	b = AppendString(b, "\x01\x02\x03") // opaque data shares the string encoding
	b = append(b, 9, 8, 0, 0)           // fixed-length opaque: bytes and padding

	d := NewDecoder(b)
	if v, err := d.Int32(); err != nil || v != -42 {
		t.Errorf("Int32 = %d, %v", v, err)
	}
	if v, err := d.Uint32(); err != nil || v != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x, %v", v, err)
	}
	if v, err := d.Int64(); err != nil || v != math.MinInt64 {
		t.Errorf("Int64 = %d, %v", v, err)
	}
	if v, err := d.Uint64(); err != nil || v != math.MaxUint64 {
		t.Errorf("Uint64 = %#x, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || !v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if v, err := d.Float32(); err != nil || v != 1.5 {
		t.Errorf("Float32 = %v, %v", v, err)
	}
	if v, err := d.Float64(); err != nil || v != -2.25 {
		t.Errorf("Float64 = %v, %v", v, err)
	}
	if v, err := d.String(); err != nil || v != "hello" {
		t.Errorf("String = %q, %v", v, err)
	}
	if v, err := d.Opaque(); err != nil || len(v) != 3 || v[2] != 3 {
		t.Errorf("Opaque = %v, %v", v, err)
	}
	if v, err := d.FixedOpaque(2); err != nil || v[0] != 9 {
		t.Errorf("FixedOpaque = %v, %v", v, err)
	}
	if err := d.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestAlignment(t *testing.T) {
	// Everything in XDR is a multiple of 4 bytes.
	cases := []struct {
		b    []byte
		want int
	}{
		{AppendString(nil, ""), 4},
		{AppendString(nil, "a"), 8},
		{AppendString(nil, "abcd"), 8},
		{AppendString(nil, "abcde"), 12},
	}
	for i, tt := range cases {
		if len(tt.b) != tt.want {
			t.Errorf("case %d: len = %d, want %d", i, len(tt.b), tt.want)
		}
		if len(tt.b)%4 != 0 {
			t.Errorf("case %d: not 4-aligned", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := NewDecoder([]byte{1, 2}).Uint32(); !errors.Is(err, ErrTruncated) {
		t.Errorf("short Uint32 err = %v", err)
	}
	if _, err := NewDecoder([]byte{0, 0, 0, 2}).Bool(); !errors.Is(err, ErrBadBool) {
		t.Errorf("bad bool err = %v", err)
	}
	if _, err := NewDecoder(AppendUint32(nil, 0xFFFFFFF0)).Opaque(); !errors.Is(err, ErrBadLength) {
		t.Errorf("huge opaque err = %v", err)
	}
	if _, err := NewDecoder([]byte{0, 0, 0, 5, 'a'}).Opaque(); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated opaque err = %v", err)
	}
	// Nonzero padding must be rejected (canonical XDR).
	bad := []byte{0, 0, 0, 1, 'x', 1, 0, 0}
	if _, err := NewDecoder(bad).String(); err == nil {
		t.Error("nonzero padding accepted")
	}
	d := NewDecoder([]byte{0, 0, 0, 0, 0xAA})
	if _, err := d.Uint32(); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); !errors.Is(err, ErrTrailing) {
		t.Errorf("Done err = %v", err)
	}
	if _, err := NewDecoder(nil).FixedOpaque(-1); !errors.Is(err, ErrBadLength) {
		t.Errorf("negative fixed opaque err = %v", err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(i int64, u uint64, fl float64, s string, raw []byte) bool {
		var b []byte
		b = AppendInt64(b, i)
		b = AppendUint64(b, u)
		b = AppendFloat64(b, fl)
		b = AppendString(b, s)
		b = AppendString(b, string(raw))
		d := NewDecoder(b)
		gi, err1 := d.Int64()
		gu, err2 := d.Uint64()
		gf, err3 := d.Float64()
		gs, err4 := d.String()
		gr, err5 := d.Opaque()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return false
		}
		if d.Done() != nil {
			return false
		}
		if len(gr) != len(raw) {
			return false
		}
		for j := range raw {
			if gr[j] != raw[j] {
				return false
			}
		}
		floatOK := gf == fl || (math.IsNaN(gf) && math.IsNaN(fl))
		return gi == i && gu == u && floatOK && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
