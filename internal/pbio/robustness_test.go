package pbio

import (
	"errors"
	"math/rand"
	"testing"

	"openmeta/internal/machine"
)

// Records, format metadata and frames arrive from the network; nothing in
// them may be trusted. These tests feed mutated and random bytes through
// every untrusted entry point and require an error or a success — never a
// panic, never an out-of-range access (the race/bounds detectors catch
// those under `go test`).

func noPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", name, r)
		}
	}()
	fn()
}

func TestDecodeNeverPanicsOnMutatedRecords(t *testing.T) {
	f := registerB(t, machine.Sparc)
	good, err := f.Encode(sampleASDOff())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		bad := append([]byte(nil), good...)
		// Flip 1-4 random bytes.
		for k := 0; k < 1+rng.Intn(4); k++ {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		noPanic(t, "Decode", func() { _, _ = f.Decode(bad) })
	}
	// Random truncations.
	for n := 0; n <= len(good); n++ {
		cut := good[:n]
		noPanic(t, "Decode(truncated)", func() { _, _ = f.Decode(cut) })
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	f := registerB(t, machine.X86_64)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1000; trial++ {
		data := make([]byte, rng.Intn(512))
		rng.Read(data)
		noPanic(t, "Decode", func() { _, _ = f.Decode(data) })
	}
}

func TestBindingDecodeNeverPanicsOnMutatedRecords(t *testing.T) {
	f := registerB(t, machine.Sparc)
	b, err := f.Bind(asdOff{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := b.Encode(sampleStruct())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		bad := append([]byte(nil), good...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		var out asdOff
		noPanic(t, "Binding.Decode", func() { _ = b.Decode(bad, &out) })
	}
}

func TestUnmarshalMetaNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := registerB(t, machine.Sparc)
	good := MarshalMeta(f)
	for trial := 0; trial < 2000; trial++ {
		bad := append([]byte(nil), good...)
		for k := 0; k < 1+rng.Intn(6); k++ {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		noPanic(t, "UnmarshalMeta", func() {
			// Whatever parsed must stay internally safe to use. A flipped
			// byte may declare a huge (but valid) record size; skip the
			// decode probe then rather than allocate gigabytes.
			if g, err := UnmarshalMeta(bad); err == nil && g.Size < 1<<20 {
				_, _ = g.Decode(make([]byte, g.Size))
			}
		})
	}
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		noPanic(t, "UnmarshalMeta(random)", func() { _, _ = UnmarshalMeta(data) })
	}
}

func TestReaderNeverPanicsOnRandomFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		stream := make([]byte, rng.Intn(200))
		rng.Read(stream)
		// Constrain the declared length so ReadFull terminates quickly.
		if len(stream) >= 5 {
			stream[1], stream[2] = 0, 0
		}
		ctx := newCtx(t, machine.X86_64)
		r := NewReader(&sliceReader{data: stream}, ctx)
		noPanic(t, "ReadRecord", func() {
			for i := 0; i < 4; i++ {
				if _, _, err := r.ReadRecord(); err != nil {
					return
				}
			}
		})
	}
}

type sliceReader struct {
	data []byte
	pos  int
}

func (s *sliceReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.data) {
		return 0, errEOF{}
	}
	n := copy(p, s.data[s.pos:])
	s.pos += n
	return n, nil
}

type errEOF struct{}

func (errEOF) Error() string { return "EOF" }

func TestDecodeIdempotentReencode(t *testing.T) {
	// decode(encode(x)) re-encodes to identical bytes — the canonical-form
	// property MatchBinary relies on.
	f := registerB(t, machine.Sparc64)
	recs := []Record{
		sampleASDOff(),
		{},
		{"cntrID": "", "eta": []uint64{}},
		{"off": []uint64{1, 0, 3, 0, 5}},
	}
	for i, rec := range recs {
		first, err := f.Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := f.Decode(first)
		if err != nil {
			t.Fatal(err)
		}
		second, err := f.Encode(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if string(first) != string(second) {
			t.Errorf("record %d: re-encode differs (%d vs %d bytes)", i, len(first), len(second))
		}
	}
}

// TestHostileDynamicArraySameVerdict feeds the same damaged records to the
// generic and the bound decoder. Both validate a dynamic array's count and
// pointer through the program's dynamicRef, so both must reject each record
// with the same sentinel.
func TestHostileDynamicArraySameVerdict(t *testing.T) {
	f := registerB(t, machine.X86)
	b, err := f.Bind(asdOff{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := f.Encode(sampleASDOff())
	if err != nil {
		t.Fatal(err)
	}
	count, _ := f.FieldByName("eta_count")
	slot, _ := f.FieldByName("eta")

	// The same array behind an 8-byte count: a count of 1<<61 times 8-byte
	// elements wraps the product to zero, so only a check that does not
	// multiply catches it.
	type wide struct {
		N   int64
		Arr []float64
	}
	wf, err := newCtx(t, machine.X86_64).RegisterSpec("Wide", []FieldSpec{
		{Name: "n", Kind: Int, CType: machine.CLong},
		{Name: "arr", Kind: Float, CType: machine.CDouble, Dynamic: true, CountField: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wb, err := wf.Bind(wide{})
	if err != nil {
		t.Fatal(err)
	}
	wgood, err := wf.Encode(Record{"arr": []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	wcount, _ := wf.FieldByName("n")

	put := func(off, size int, v uint64) func([]byte) {
		return func(rec []byte) { machine.PutUint(rec[off:], machine.LittleEndian, size, v) }
	}
	cases := []struct {
		name   string
		wide   bool
		damage func(rec []byte)
		want   error
	}{
		{"negative count", false, put(count.Offset, 4, 0xfffffffb) /* -5 in 4 bytes */, ErrCountMismatch},
		{"count x size past the record", false, put(count.Offset, 4, 1<<28), ErrBadReference},
		{"nil pointer with non-zero count", false, put(slot.Offset, 4, 0), ErrCountMismatch},
		{"reference at len(data)", false, put(slot.Offset, 4, uint64(len(good))), ErrBadReference},
		{"8-byte count x size wraps to zero", true, put(wcount.Offset, 8, 1<<61), ErrBadReference},
		{"8-byte count x size wraps to a small product", true, put(wcount.Offset, 8, 1<<61+1), ErrBadReference},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, good := f, good
			decodeBound := func(data []byte) error { return b.Decode(data, new(asdOff)) }
			if tc.wide {
				f, good = wf, wgood
				decodeBound = func(data []byte) error { return wb.Decode(data, new(wide)) }
			}
			bad := append([]byte(nil), good...)
			tc.damage(bad)
			if _, err := f.Decode(bad); !errors.Is(err, tc.want) {
				t.Errorf("Format.Decode err = %v, want %v", err, tc.want)
			}
			if err := decodeBound(bad); !errors.Is(err, tc.want) {
				t.Errorf("Binding.Decode err = %v, want %v", err, tc.want)
			}
		})
	}
}
