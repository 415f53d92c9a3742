package machine

import (
	"math"
	"testing"
	"testing/quick"
)

// truncInt is the scalar reference the integer kernels are checked
// against: it returns the low `size` bytes of the two's-complement
// representation of v, as an unsigned value suitable for PutUint. Values out
// of range wrap, matching C integer conversion semantics.
func truncInt(v int64, size int) uint64 {
	if size >= 8 {
		return uint64(v)
	}
	mask := uint64(1)<<(uint(size)*8) - 1
	return uint64(v) & mask
}

// putFloat is the scalar reference the float kernels are checked against:
// it stores a floating-point value of the given size (4 or 8 bytes) in
// IEEE 754 format. 4-byte stores convert through float32.
func putFloat(b []byte, order ByteOrder, size int, v float64) {
	switch size {
	case 4:
		PutUint(b, order, 4, uint64(math.Float32bits(float32(v))))
	case 8:
		PutUint(b, order, 8, math.Float64bits(v))
	default:
		panic("machine: putFloat size must be 4 or 8")
	}
}

func TestPutUintUintRoundTrip(t *testing.T) {
	f := func(v uint64, big bool, sizeSel uint8) bool {
		sizes := []int{1, 2, 4, 8}
		size := sizes[int(sizeSel)%4]
		order := LittleEndian
		if big {
			order = BigEndian
		}
		var b [8]byte
		want := v
		if size < 8 {
			want = v & (uint64(1)<<(uint(size)*8) - 1)
		}
		PutUint(b[:], order, size, v)
		return Uint(b[:], order, size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUintKnownValues(t *testing.T) {
	b := []byte{0x12, 0x34, 0x56, 0x78}
	if got := Uint(b, BigEndian, 4); got != 0x12345678 {
		t.Errorf("BE = %#x", got)
	}
	if got := Uint(b, LittleEndian, 4); got != 0x78563412 {
		t.Errorf("LE = %#x", got)
	}
	if got := Uint(b, BigEndian, 2); got != 0x1234 {
		t.Errorf("BE16 = %#x", got)
	}
	if got := Uint(b, LittleEndian, 1); got != 0x12 {
		t.Errorf("8 = %#x", got)
	}
	b8 := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if got := Uint(b8, BigEndian, 8); got != 0x0102030405060708 {
		t.Errorf("BE64 = %#x", got)
	}
	if got := Uint(b8, LittleEndian, 8); got != 0x0807060504030201 {
		t.Errorf("LE64 = %#x", got)
	}
}

func TestPutUintPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PutUint with size 3 should panic")
		}
	}()
	var b [8]byte
	PutUint(b[:], BigEndian, 3, 1)
}

func TestUintPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint with size 5 should panic")
		}
	}()
	var b [8]byte
	Uint(b[:], BigEndian, 5)
}

func TestSignExtend(t *testing.T) {
	tests := []struct {
		v    uint64
		size int
		want int64
	}{
		{0xFF, 1, -1},
		{0x7F, 1, 127},
		{0x80, 1, -128},
		{0xFFFF, 2, -1},
		{0x8000, 2, -32768},
		{0xFFFFFFFF, 4, -1},
		{0x7FFFFFFF, 4, math.MaxInt32},
		{0xFFFFFFFFFFFFFFFF, 8, -1},
		{42, 4, 42},
	}
	for _, tt := range tests {
		if got := SignExtend(tt.v, tt.size); got != tt.want {
			t.Errorf("SignExtend(%#x, %d) = %d, want %d", tt.v, tt.size, got, tt.want)
		}
	}
}

func TestTruncInt(t *testing.T) {
	tests := []struct {
		v    int64
		size int
		want uint64
	}{
		{-1, 1, 0xFF},
		{-1, 2, 0xFFFF},
		{-1, 4, 0xFFFFFFFF},
		{-1, 8, 0xFFFFFFFFFFFFFFFF},
		{300, 1, 44}, // wraps like C
		{42, 4, 42},
	}
	for _, tt := range tests {
		if got := truncInt(tt.v, tt.size); got != tt.want {
			t.Errorf("truncInt(%d, %d) = %#x, want %#x", tt.v, tt.size, got, tt.want)
		}
	}
}

func TestSignRoundTripProperty(t *testing.T) {
	f := func(v int64, sizeSel uint8) bool {
		sizes := []int{1, 2, 4, 8}
		size := sizes[int(sizeSel)%4]
		// Clamp v into range for the size, then round-trip.
		tr := truncInt(v, size)
		got := SignExtend(tr, size)
		want := v
		if size < 8 {
			shift := uint(64 - size*8)
			want = v << shift >> shift
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	values := []float64{0, 1, -1, 3.141592653589793, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}
	for _, order := range []ByteOrder{LittleEndian, BigEndian} {
		for _, v := range values {
			var b [8]byte
			putFloat(b[:], order, 8, v)
			if got := Float(b[:], order, 8); got != v {
				t.Errorf("double %s round trip: %v != %v", order, got, v)
			}
			putFloat(b[:], order, 4, v)
			want := float64(float32(v))
			if got := Float(b[:], order, 4); got != want {
				t.Errorf("float %s round trip: %v != %v", order, got, want)
			}
		}
	}
}

func TestFloatNaN(t *testing.T) {
	var b [8]byte
	putFloat(b[:], BigEndian, 8, math.NaN())
	if !math.IsNaN(Float(b[:], BigEndian, 8)) {
		t.Error("NaN did not round trip")
	}
}

func TestPutFloatPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("putFloat with size 2 should panic")
		}
	}()
	var b [8]byte
	putFloat(b[:], BigEndian, 2, 1)
}

func TestFloatPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Float with size 1 should panic")
		}
	}()
	var b [8]byte
	Float(b[:], BigEndian, 1)
}
