package machine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var bothOrders = []ByteOrder{LittleEndian, BigEndian}

// Every kernel must agree, byte for byte and value for value, with the
// per-element helper it replaces, for every width and byte order.
func TestIntKernelsMatchScalarHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	signed := make([]int64, 97) // not a multiple of anything: tails are covered
	unsigned := make([]uint64, len(signed))
	for i := range signed {
		signed[i] = int64(rng.Uint64())
		unsigned[i] = rng.Uint64()
	}
	for _, order := range bothOrders {
		for _, size := range []int{1, 2, 4, 8} {
			want := make([]byte, len(signed)*size)
			for i, v := range signed {
				PutUint(want[i*size:], order, size, truncInt(v, size))
			}
			got := make([]byte, len(want))
			PutInts(got, order, size, signed)
			if !bytes.Equal(got, want) {
				t.Errorf("PutInts[int64] %v/%d differs from PutUint∘truncInt", order, size)
			}
			back := make([]int64, len(signed))
			Ints(back, got, order, size)
			for i := range back {
				if w := SignExtend(Uint(got[i*size:], order, size), size); back[i] != w {
					t.Fatalf("Ints[int64] %v/%d elem %d = %d, want %d", order, size, i, back[i], w)
				}
			}

			for i, v := range unsigned {
				PutUint(want[i*size:], order, size, v)
			}
			PutInts(got, order, size, unsigned)
			if !bytes.Equal(got, want) {
				t.Errorf("PutInts[uint64] %v/%d differs from PutUint", order, size)
			}
			uback := make([]uint64, len(unsigned))
			Ints(uback, got, order, size)
			for i := range uback {
				if w := Uint(got[i*size:], order, size); uback[i] != w {
					t.Fatalf("Ints[uint64] %v/%d elem %d = %d, want %d", order, size, i, uback[i], w)
				}
			}
		}
	}
}

func TestFloatKernelsMatchScalarHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat32}
	for len(vals) < 70 {
		vals = append(vals, rng.NormFloat64()*1e6)
	}
	for _, order := range bothOrders {
		for _, size := range []int{4, 8} {
			want := make([]byte, len(vals)*size)
			for i, v := range vals {
				putFloat(want[i*size:], order, size, v)
			}
			got := make([]byte, len(want))
			PutFloats(got, order, size, vals)
			if !bytes.Equal(got, want) {
				t.Errorf("PutFloats %v/%d differs from putFloat", order, size)
			}
			back := make([]float64, len(vals))
			Floats(back, got, order, size)
			for i := range back {
				if w := Float(got[i*size:], order, size); back[i] != w {
					t.Fatalf("Floats %v/%d elem %d = %v, want %v", order, size, i, back[i], w)
				}
			}
		}
	}
}

func TestSwapBytes(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}
	for _, size := range []int{1, 2, 3, 4, 8} {
		dst := make([]byte, len(src))
		SwapBytes(dst, src, size)
		for i := 0; i+size <= len(src); i += size {
			for k := 0; k < size; k++ {
				if dst[i+k] != src[i+size-1-k] {
					t.Fatalf("size %d: byte %d of element at %d not reversed", size, k, i)
				}
			}
		}
	}
}

// The resizing kernels are what dcg's opInt and opFloat run: they must equal
// load-extend-truncate-store element by element, across chunk boundaries.
func TestResizeKernelsMatchScalarHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 2*resizeChunk + 5
	for _, so := range bothOrders {
		for _, do := range bothOrders {
			for _, ss := range []int{1, 2, 4, 8} {
				src := make([]byte, n*ss)
				rng.Read(src)
				for _, ds := range []int{1, 2, 4, 8} {
					for _, signed := range []bool{true, false} {
						want := make([]byte, n*ds)
						for i := 0; i < n; i++ {
							raw := Uint(src[i*ss:], so, ss)
							if signed {
								raw = truncInt(SignExtend(raw, ss), ds)
							}
							PutUint(want[i*ds:], do, ds, raw)
						}
						got := make([]byte, n*ds)
						ResizeInts(got, do, ds, src, so, ss, signed)
						if !bytes.Equal(got, want) {
							t.Errorf("ResizeInts %v/%d -> %v/%d signed=%v differs", so, ss, do, ds, signed)
						}
					}
				}
			}
			for _, ss := range []int{4, 8} {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = rng.NormFloat64()
				}
				src := make([]byte, n*ss)
				PutFloats(src, so, ss, vals)
				for _, ds := range []int{4, 8} {
					want := make([]byte, n*ds)
					for i := 0; i < n; i++ {
						putFloat(want[i*ds:], do, ds, Float(src[i*ss:], so, ss))
					}
					got := make([]byte, n*ds)
					ResizeFloats(got, do, ds, src, so, ss)
					if !bytes.Equal(got, want) {
						t.Errorf("ResizeFloats %v/%d -> %v/%d differs", so, ss, do, ds)
					}
				}
			}
		}
	}
}

func TestKernelsPanicOnBadSize(t *testing.T) {
	for name, fn := range map[string]func(){
		"PutInts":   func() { PutInts(make([]byte, 8), BigEndian, 3, []int64{1}) },
		"Ints":      func() { Ints(make([]uint64, 1), make([]byte, 8), BigEndian, 3) },
		"PutFloats": func() { PutFloats(make([]byte, 8), BigEndian, 2, []float64{1}) },
		"Floats":    func() { Floats(make([]float64, 1), make([]byte, 8), BigEndian, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a bad size should panic", name)
				}
			}()
			fn()
		}()
	}
}

// Owner benchmarks: each kernel against the per-element helper loop it
// replaces, on the 1200-element array of the benchmark's 10 KB record.
const benchElems = 1200

func BenchmarkKernels(b *testing.B) {
	floats := make([]float64, benchElems)
	ints := make([]int64, benchElems)
	uints := make([]uint64, benchElems)
	for i := range floats {
		floats[i], ints[i], uints[i] = float64(i)/8, int64(i)-600, uint64(i)
	}
	for _, order := range bothOrders {
		for _, size := range []int{4, 8} {
			buf := make([]byte, benchElems*size)
			tag := fmt.Sprintf("%v/%d", order, size)
			run := func(name string, kernel, scalar func()) {
				b.Run(name+"/kernel/"+tag, func(b *testing.B) {
					b.SetBytes(int64(len(buf)))
					for i := 0; i < b.N; i++ {
						kernel()
					}
				})
				b.Run(name+"/scalar/"+tag, func(b *testing.B) {
					b.SetBytes(int64(len(buf)))
					for i := 0; i < b.N; i++ {
						scalar()
					}
				})
			}
			run("PutFloats", func() { PutFloats(buf, order, size, floats) }, func() {
				for i, v := range floats {
					putFloat(buf[i*size:], order, size, v)
				}
			})
			run("Floats", func() { Floats(floats, buf, order, size) }, func() {
				for i := range floats {
					floats[i] = Float(buf[i*size:], order, size)
				}
			})
			run("PutInts", func() { PutInts(buf, order, size, ints) }, func() {
				for i, v := range ints {
					PutUint(buf[i*size:], order, size, truncInt(v, size))
				}
			})
			run("Ints", func() { Ints(ints, buf, order, size) }, func() {
				for i := range ints {
					ints[i] = SignExtend(Uint(buf[i*size:], order, size), size)
				}
			})
			run("PutUints", func() { PutInts(buf, order, size, uints) }, func() {
				for i, v := range uints {
					PutUint(buf[i*size:], order, size, v)
				}
			})
			run("Uints", func() { Ints(uints, buf, order, size) }, func() {
				for i := range uints {
					uints[i] = Uint(buf[i*size:], order, size)
				}
			})
		}
	}
}
