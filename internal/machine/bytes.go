package machine

import "math"

// PutUint stores the low `size` bytes of v into b[:size] in the given byte
// order. size must be 1, 2, 4 or 8 and len(b) >= size; violations panic, as
// with encoding/binary, because they are always programming errors on a hot
// path that callers have already validated.
func PutUint(b []byte, order ByteOrder, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		if order == BigEndian {
			b[0], b[1] = byte(v>>8), byte(v)
		} else {
			b[0], b[1] = byte(v), byte(v>>8)
		}
	case 4:
		if order == BigEndian {
			b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		} else {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
	case 8:
		if order == BigEndian {
			b[0], b[1], b[2], b[3] = byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32)
			b[4], b[5], b[6], b[7] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		} else {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		}
	default:
		panic("machine: PutUint size must be 1, 2, 4 or 8")
	}
}

// Uint loads a `size`-byte unsigned integer from b[:size] in the given byte
// order. size must be 1, 2, 4 or 8.
func Uint(b []byte, order ByteOrder, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		if order == BigEndian {
			return uint64(b[0])<<8 | uint64(b[1])
		}
		return uint64(b[1])<<8 | uint64(b[0])
	case 4:
		if order == BigEndian {
			return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
		}
		return uint64(b[3])<<24 | uint64(b[2])<<16 | uint64(b[1])<<8 | uint64(b[0])
	case 8:
		if order == BigEndian {
			return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
				uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
		}
		return uint64(b[7])<<56 | uint64(b[6])<<48 | uint64(b[5])<<40 | uint64(b[4])<<32 |
			uint64(b[3])<<24 | uint64(b[2])<<16 | uint64(b[1])<<8 | uint64(b[0])
	default:
		panic("machine: Uint size must be 1, 2, 4 or 8")
	}
}

// SignExtend interprets v as a `size`-byte two's-complement integer and
// returns its value as int64.
func SignExtend(v uint64, size int) int64 {
	shift := uint(64 - size*8)
	return int64(v<<shift) >> shift
}

// Float loads an IEEE 754 floating-point value of the given size (4 or 8).
func Float(b []byte, order ByteOrder, size int) float64 {
	switch size {
	case 4:
		return float64(math.Float32frombits(uint32(Uint(b, order, 4))))
	case 8:
		return math.Float64frombits(Uint(b, order, 8))
	default:
		panic("machine: Float size must be 4 or 8")
	}
}
