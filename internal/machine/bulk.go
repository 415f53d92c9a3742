package machine

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Bulk kernels move whole arrays between Go slices and NDR bytes. Byte order
// and element width are decided once per array, and every inner loop is the
// encoding/binary load or store form the compiler turns into one machine
// instruction — which is what PutUint/Uint/Float, with their two
// nested switches per call, cannot be when called once per element. Sizes
// other than 1, 2, 4, 8 (4, 8 for floats) panic like the scalar helpers.

// PutInts stores the low size bytes of each value into dst in the given
// order. Two's complement makes that the C conversion for signed and
// unsigned values alike. dst must hold len(vals)*size bytes.
func PutInts[T int64 | uint64](dst []byte, order ByteOrder, size int, vals []T) {
	dst = dst[:len(vals)*size]
	big := order == BigEndian
	switch {
	case size == 1:
		for i, v := range vals {
			dst[i] = byte(v)
		}
	case size == 2 && big:
		for i, v := range vals {
			binary.BigEndian.PutUint16(dst[i*2:], uint16(v))
		}
	case size == 2:
		for i, v := range vals {
			binary.LittleEndian.PutUint16(dst[i*2:], uint16(v))
		}
	case size == 4 && big:
		for i, v := range vals {
			binary.BigEndian.PutUint32(dst[i*4:], uint32(v))
		}
	case size == 4:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
		}
	case size == 8 && big:
		for i, v := range vals {
			binary.BigEndian.PutUint64(dst[i*8:], uint64(v))
		}
	case size == 8:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
		}
	default:
		panic("machine: PutInts size must be 1, 2, 4 or 8")
	}
}

// Ints loads len(out) size-byte integers from src, sign-extending into
// []int64 and zero-extending into []uint64.
func Ints[T int64 | uint64](out []T, src []byte, order ByteOrder, size int) {
	src = src[:len(out)*size]
	big := order == BigEndian
	// Shifting up and back down extends by the element type's own rule:
	// arithmetic for int64, logical (a no-op) for uint64.
	shift := uint(64 - 8*size)
	switch {
	case size == 1:
		for i := range out {
			out[i] = T(src[i]) << shift >> shift
		}
	case size == 2 && big:
		for i := range out {
			out[i] = T(binary.BigEndian.Uint16(src[i*2:])) << shift >> shift
		}
	case size == 2:
		for i := range out {
			out[i] = T(binary.LittleEndian.Uint16(src[i*2:])) << shift >> shift
		}
	case size == 4 && big:
		for i := range out {
			out[i] = T(binary.BigEndian.Uint32(src[i*4:])) << shift >> shift
		}
	case size == 4:
		for i := range out {
			out[i] = T(binary.LittleEndian.Uint32(src[i*4:])) << shift >> shift
		}
	case size == 8 && big:
		for i := range out {
			out[i] = T(binary.BigEndian.Uint64(src[i*8:]))
		}
	case size == 8:
		for i := range out {
			out[i] = T(binary.LittleEndian.Uint64(src[i*8:]))
		}
	default:
		panic("machine: Ints size must be 1, 2, 4 or 8")
	}
}

// PutFloats stores vals as IEEE 754 values of the given size (4-byte stores
// convert through float32). dst must hold len(vals)*size bytes.
func PutFloats(dst []byte, order ByteOrder, size int, vals []float64) {
	dst = dst[:len(vals)*size]
	big := order == BigEndian
	switch {
	case size == 4 && big:
		for i, v := range vals {
			binary.BigEndian.PutUint32(dst[i*4:], math.Float32bits(float32(v)))
		}
	case size == 4:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(float32(v)))
		}
	case size == 8 && big:
		for i, v := range vals {
			binary.BigEndian.PutUint64(dst[i*8:], math.Float64bits(v))
		}
	case size == 8:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
		}
	default:
		panic("machine: PutFloats size must be 4 or 8")
	}
}

// Floats loads len(out) IEEE 754 values of the given size from src.
func Floats(out []float64, src []byte, order ByteOrder, size int) {
	src = src[:len(out)*size]
	big := order == BigEndian
	switch {
	case size == 4 && big:
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(src[i*4:])))
		}
	case size == 4:
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:])))
		}
	case size == 8 && big:
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(src[i*8:]))
		}
	case size == 8:
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
		}
	default:
		panic("machine: Floats size must be 4 or 8")
	}
}

// SwapBytes reverses the byte order of each size-byte element while copying
// src to dst. This is the whole of an endianness conversion for fixed-width
// integers and IEEE floats of unchanged width.
func SwapBytes(dst, src []byte, size int) {
	switch size {
	case 2:
		for i := 0; i+2 <= len(src); i += 2 {
			binary.LittleEndian.PutUint16(dst[i:], bits.ReverseBytes16(binary.LittleEndian.Uint16(src[i:])))
		}
	case 4:
		for i := 0; i+4 <= len(src); i += 4 {
			binary.LittleEndian.PutUint32(dst[i:], bits.ReverseBytes32(binary.LittleEndian.Uint32(src[i:])))
		}
	case 8:
		for i := 0; i+8 <= len(src); i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], bits.ReverseBytes64(binary.LittleEndian.Uint64(src[i:])))
		}
	default:
		for i := 0; i+size <= len(src); i += size {
			for k := 0; k < size; k++ {
				dst[i+k] = src[i+size-1-k]
			}
		}
	}
}

// resizeChunk is how many elements the resizing kernels carry through a
// stack buffer at a time.
const resizeChunk = 64

// ResizeInts converts len(src)/srcSize integers from one width and byte
// order to another, sign-extending when signed and wrapping on narrowing as
// C does.
func ResizeInts(dst []byte, dstOrder ByteOrder, dstSize int, src []byte, srcOrder ByteOrder, srcSize int, signed bool) {
	var s [resizeChunk]int64
	var u [resizeChunk]uint64
	for n := len(src) / srcSize; n > 0; n -= resizeChunk {
		m := min(n, resizeChunk)
		if signed {
			Ints(s[:m], src, srcOrder, srcSize)
			PutInts(dst, dstOrder, dstSize, s[:m])
		} else {
			Ints(u[:m], src, srcOrder, srcSize)
			PutInts(dst, dstOrder, dstSize, u[:m])
		}
		src, dst = src[m*srcSize:], dst[m*dstSize:]
	}
}

// ResizeFloats converts len(src)/srcSize IEEE 754 values between the 4- and
// 8-byte widths and byte orders.
func ResizeFloats(dst []byte, dstOrder ByteOrder, dstSize int, src []byte, srcOrder ByteOrder, srcSize int) {
	var f [resizeChunk]float64
	for n := len(src) / srcSize; n > 0; n -= resizeChunk {
		m := min(n, resizeChunk)
		Floats(f[:m], src, srcOrder, srcSize)
		PutFloats(dst, dstOrder, dstSize, f[:m])
		src, dst = src[m*srcSize:], dst[m*dstSize:]
	}
}
