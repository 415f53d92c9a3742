// Package xdr implements External Data Representation (XDR, RFC 1014), the
// canonical wire format used by Sun RPC and by the commercial platforms the
// paper compares against.
//
// XDR is a "writer makes right, reader makes right again" format: every
// datum is converted to a canonical big-endian, 4-byte-aligned
// representation on send and converted back on receipt — both sides pay
// conversion and copy costs even when the machines are identical. That
// double conversion is exactly the overhead NDR eliminates, which makes this
// package the baseline for the paper's ">50% over XDR-based platforms"
// claim (reproduced in internal/bench's BenchmarkTable3Pipeline and
// cmd/benchtab -table 3).
package xdr

import (
	"errors"
	"fmt"
	"math"
)

// Errors reported while decoding.
var (
	ErrTruncated = errors.New("xdr: truncated data")
	ErrBadLength = errors.New("xdr: invalid length")
	ErrBadBool   = errors.New("xdr: boolean not 0 or 1")
	ErrTrailing  = errors.New("xdr: trailing bytes")
)

// MaxLength bounds variable-length items as a defence against corrupt input.
const MaxLength = 1 << 30

// AppendUint32 appends an XDR unsigned integer.
func AppendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendInt32 appends an XDR integer.
func AppendInt32(b []byte, v int32) []byte { return AppendUint32(b, uint32(v)) }

// AppendUint64 appends an XDR unsigned hyper integer.
func AppendUint64(b []byte, v uint64) []byte {
	b = AppendUint32(b, uint32(v>>32))
	return AppendUint32(b, uint32(v))
}

// AppendInt64 appends an XDR hyper integer.
func AppendInt64(b []byte, v int64) []byte { return AppendUint64(b, uint64(v)) }

// AppendBool appends an XDR boolean.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return AppendUint32(b, 1)
	}
	return AppendUint32(b, 0)
}

// AppendFloat32 appends an XDR single-precision float.
func AppendFloat32(b []byte, v float32) []byte {
	return AppendUint32(b, math.Float32bits(v))
}

// AppendFloat64 appends an XDR double-precision float.
func AppendFloat64(b []byte, v float64) []byte {
	return AppendUint64(b, math.Float64bits(v))
}

// pad returns the number of padding bytes to reach 4-byte alignment.
func pad(n int) int { return (4 - n%4) % 4 }

// AppendString appends an XDR string: length, bytes, zero padding to a
// multiple of 4 (the encoding of variable-length opaque data too).
func AppendString(b []byte, s string) []byte {
	b = AppendUint32(b, uint32(len(s)))
	b = append(b, s...)
	return append(b, make([]byte, pad(len(s)))...)
}

// Decoder reads XDR items from a byte slice.
type Decoder struct {
	data []byte
	pos  int
}

// NewDecoder returns a Decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.pos }

// Done verifies that the input was consumed exactly.
func (d *Decoder) Done() error {
	if d.pos != len(d.data) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.data)-d.pos)
	}
	return nil
}

// Uint32 reads an XDR unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.pos+4 > len(d.data) {
		return 0, ErrTruncated
	}
	v := uint32(d.data[d.pos])<<24 | uint32(d.data[d.pos+1])<<16 |
		uint32(d.data[d.pos+2])<<8 | uint32(d.data[d.pos+3])
	d.pos += 4
	return v, nil
}

// Int32 reads an XDR integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 reads an XDR unsigned hyper integer.
func (d *Decoder) Uint64() (uint64, error) {
	hi, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	lo, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Int64 reads an XDR hyper integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool reads an XDR boolean, enforcing the canonical 0/1 encoding.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, ErrBadBool
	}
}

// Float32 reads an XDR single-precision float.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 reads an XDR double-precision float.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

// Opaque reads variable-length opaque data in place: the bytes returned are
// the decoder's input, not a copy.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > MaxLength {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, n)
	}
	return d.FixedOpaque(int(n))
}

// FixedOpaque reads n opaque bytes plus padding in place, as Opaque does.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrBadLength
	}
	total := n + pad(n)
	if d.pos+total > len(d.data) {
		return nil, ErrTruncated
	}
	for i := d.pos + n; i < d.pos+total; i++ {
		if d.data[i] != 0 {
			return nil, fmt.Errorf("xdr: nonzero padding byte")
		}
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += total
	return b, nil
}

// String reads an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}
