package pbio

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"openmeta/internal/machine"
)

// Record is a generic, dynamically typed record value: field name to value.
// It is the representation used when a format has been discovered at run
// time and no compiled-in Go type exists for it — the situation xml2wire is
// built for. Values may be any Go integer, float, bool or string type;
// arrays may be typed slices or []interface{}; nested records are Records.
type Record map[string]interface{}

// Encoding errors.
var (
	ErrBadValue      = errors.New("pbio: value has wrong type for field")
	ErrBadCount      = errors.New("pbio: array length does not match count field")
	ErrRecordTooBig  = errors.New("pbio: encoded record exceeds size limit")
	ErrStringHasNUL  = errors.New("pbio: string contains NUL byte")
	ErrTruncated     = errors.New("pbio: encoded record truncated")
	ErrBadReference  = errors.New("pbio: variable-region reference out of bounds")
	ErrCountMismatch = errors.New("pbio: count field does not match data")
)

// MaxRecordSize bounds decoded variable-length data as a defence against
// corrupt or hostile metadata/records.
const MaxRecordSize = 1 << 30

// Encode marshals a generic record into NDR wire form: the fixed region in
// the format's native layout followed by the variable region (string bytes
// and dynamic array elements), with pointer slots holding offsets from the
// start of the record. Missing fields encode as zero values; count fields
// for dynamic arrays are filled in automatically when absent.
func (f *Format) Encode(rec Record) ([]byte, error) {
	return f.AppendEncode(nil, rec)
}

// AppendEncode appends the encoded record to dst and returns the extended
// slice, allowing buffer reuse on hot paths.
func (f *Format) AppendEncode(dst []byte, rec Record) ([]byte, error) {
	out, err := f.compiled().encode(dst, goRecord{rec: rec})
	if err == nil {
		f.noteEncode(len(out) - len(dst))
	}
	return out, err
}

// goRecord is the Go side of one (possibly nested) record, which an encode
// reads and a decode fills: a generic Record, or a struct and its Binding.
type goRecord struct {
	rec Record
	rv  reflect.Value
	b   *Binding
}

// value is one Go value on its way into a record, seen through reflection: an
// entry of a generic Record, or a field of a bound struct (checked by Bind).
type value struct {
	fv  reflect.Value
	kid *Binding // bound nested field: the binding of the struct it holds
}

// field returns the value of field i; ok is false when the record does not
// carry it, and it then encodes as zero.
func (r goRecord) field(i int, op *fieldOp) (value, bool) {
	if r.b != nil {
		bf := r.b.fields[i]
		if bf.index < 0 {
			return value{}, false
		}
		return value{fv: r.rv.Field(bf.index), kid: bf.kid}, true
	}
	x := r.rec[op.name]
	return value{fv: reflect.ValueOf(x)}, x != nil
}

// arrayLen is the length of the array in field i, zero when absent.
func (r goRecord) arrayLen(i int, op *fieldOp) (int, error) {
	v, _ := r.field(i, op)
	return v.len()
}

// encoder appends one record to dst. Offsets are positions in dst; references
// stored in pointer slots are relative to base, the start of the outermost
// record.
type encoder struct {
	dst  []byte
	base int
}

// encode is the one encode walk. The output is sized from the record first —
// the fixed region plus what measure finds variable — so it is one allocation.
func (p *program) encode(dst []byte, src goRecord) ([]byte, error) {
	size := p.size
	if p.variable {
		var err error
		if size, err = p.measure(src, size); err != nil {
			return nil, err
		}
	}
	e := encoder{dst: dst, base: len(dst)}
	if cap(dst)-len(dst) < size { // exact for a fresh record, doubling under a caller that accumulates
		e.dst = make([]byte, len(dst), max(len(dst)+size, 2*len(dst)))
		copy(e.dst, dst)
	}
	e.extend(p.size)
	if err := e.record(p, e.base, src); err != nil {
		return nil, err
	}
	return e.dst, nil
}

// extend appends n zero bytes; encode has made room for them.
func (e *encoder) extend(n int) {
	at := len(e.dst)
	e.dst = slices.Grow(e.dst, n)[:at+n]
	clear(e.dst[at:])
}

// measure adds to size what src will put in the variable region, in the
// order record appends it (alignment padding depends on that order), and
// checks that dynamic arrays sharing a count field agree on their length.
// Values of the wrong type count as empty here; record reports them.
func (p *program) measure(src goRecord, size int) (int, error) {
	for i := range p.ops {
		op := &p.ops[i]
		if !op.variable {
			continue
		}
		v, ok := src.field(i, op)
		n := 1
		if op.array() {
			var err error
			if n, err = v.len(); err != nil {
				return 0, fmt.Errorf("field %q: %w", op.name, err)
			}
		}
		if op.dynamic {
			if first := int(p.ops[op.countIdx].lenOf); first != i {
				if prev, _ := src.arrayLen(first, &p.ops[first]); prev != n {
					return 0, fmt.Errorf("%w: count field %q shared by arrays of length %d and %d",
						ErrBadCount, p.ops[op.countIdx].name, prev, n)
				}
			}
			if n > 0 {
				size = alignUp(size, int(op.align)) + n*int(op.size)
			}
		}
		if !ok || !(op.strings || op.child != nil && op.child.variable) {
			continue
		}
		for e := 0; e < n; e++ {
			elem := v
			if op.array() {
				elem = v.index(e)
			}
			if op.kind == String {
				if s, err := elem.str(); err == nil && s != "" {
					size += len(s) + 1
				}
			} else if sub, ok, err := elem.record(); ok && err == nil {
				if size, err = op.child.measure(sub, size); err != nil {
					return 0, fmt.Errorf("field %q: %w", op.name, err)
				}
			}
		}
	}
	return size, nil
}

// record fills in the fixed region of one (possibly nested) record starting
// at fixed, appending its variable data at the end of dst.
func (e *encoder) record(p *program, fixed int, src goRecord) error {
	for i := range p.ops {
		op := &p.ops[i]
		off := fixed + int(op.off)
		var err error
		if op.lenOf >= 0 {
			err = e.count(p, off, i, src)
		} else if v, ok := src.field(i, op); ok && op.array() {
			err = e.array(p, op, off, v)
		} else if ok {
			err = e.scalar(p, op, off, v)
		}
		if err != nil {
			return fmt.Errorf("field %q: %w", op.name, err)
		}
	}
	return nil
}

// count writes a field that carries a dynamic array's length. The length is
// always derived from the array, so count and data cannot disagree: a bound
// struct's own value is ignored, a generic record's must match.
func (e *encoder) count(p *program, off, i int, src goRecord) error {
	op := &p.ops[i]
	n, _ := src.arrayLen(int(op.lenOf), &p.ops[op.lenOf]) // measure has checked it
	if v, ok := src.field(i, op); ok && src.b == nil {
		given, err := v.bits(op)
		if err != nil {
			return err
		}
		if int64(given) != int64(n) {
			return fmt.Errorf("%w: is %d, array has %d elements", ErrBadCount, int64(given), n)
		}
	}
	machine.PutUint(e.dst[off:], p.order, int(op.size), uint64(n))
	return nil
}

func (e *encoder) scalar(p *program, op *fieldOp, off int, v value) error {
	switch op.kind {
	case String:
		return e.str(p, off, v)
	case Nested:
		sub, ok, err := v.record()
		if err != nil || !ok {
			return err // a nil nested pointer is a zero record
		}
		return e.record(op.child, off, sub)
	default:
		bits, err := v.bits(op)
		if err != nil {
			return err
		}
		machine.PutUint(e.dst[off:], p.order, int(op.size), bits)
		return nil
	}
}

// str appends the string v (NUL-terminated) to the variable region and
// stores its offset in the pointer slot at off. The empty string encodes as a
// NULL pointer — decode collapses NULL and "" anyway, and the convention
// makes decode-then-encode idempotent (MatchBinary relies on that).
func (e *encoder) str(p *program, off int, v value) error {
	s, err := v.str()
	if err != nil || s == "" {
		return err
	}
	if strings.IndexByte(s, 0) >= 0 {
		return ErrStringHasNUL
	}
	ref := len(e.dst) - e.base
	e.dst = append(append(e.dst, s...), 0)
	machine.PutUint(e.dst[off:], p.order, p.ptr, uint64(ref))
	return nil
}

// array writes an array field whose slot is at off: a static array in place,
// a dynamic one appended to the variable region — aligned for its element
// type, as native memory would be — with the pointer slot saying where.
func (e *encoder) array(p *program, op *fieldOp, off int, v value) error {
	n, err := v.len()
	if err != nil || n == 0 {
		return err
	}
	at := off
	if op.dynamic {
		at = e.base + alignUp(len(e.dst)-e.base, int(op.align))
		e.extend(at - len(e.dst) + n*int(op.size))
	} else if n > int(op.count) {
		return fmt.Errorf("%w: %d values for static array of %d", ErrBadCount, n, op.count)
	}
	if err := e.elems(p, op, at, n, v); err != nil {
		return err
	}
	if op.dynamic {
		machine.PutUint(e.dst[off:], p.order, p.ptr, uint64(at-e.base))
	}
	return nil
}

// elems writes the first n elements of the array v at at. Typed numeric
// slices go to a bulk kernel whole; any other array the field's kind accepts
// ([]interface{}, []int32, [5]uint32, ...) is gathered through a stack
// buffer, so byte order and width are still decided per chunk.
func (e *encoder) elems(p *program, op *fieldOp, at, n int, v value) error {
	size := int(op.size)
	switch op.kind {
	case String, Nested:
		for i := 0; i < n; i++ {
			if err := e.scalar(p, op, at+i*size, v.index(i)); err != nil {
				return err
			}
		}
		return nil
	case Int, Char:
		if x, ok := typed[int64](v); ok {
			machine.PutInts(e.dst[at:], p.order, size, x[:n])
			return nil
		}
	case Uint:
		if x, ok := typed[uint64](v); ok {
			machine.PutInts(e.dst[at:], p.order, size, x[:n])
			return nil
		}
	case Float:
		if x, ok := typed[float64](v); ok {
			machine.PutFloats(e.dst[at:], p.order, size, x[:n])
			return nil
		}
	}
	var buf [32]uint64
	for i := 0; i < n; i += len(buf) {
		m := min(n-i, len(buf))
		for k := 0; k < m; k++ {
			var err error
			if buf[k], err = v.index(i + k).bits(op); err != nil {
				return err
			}
		}
		machine.PutInts(e.dst[at+i*size:], p.order, size, buf[:m])
	}
	return nil
}

// typed returns v as a []T when that is exactly what it holds, without
// copying and without boxing the slice header.
func typed[T any](v value) ([]T, bool) {
	if v.fv.CanAddr() { // a field of a struct passed by pointer
		x, ok := v.fv.Addr().Interface().(*[]T)
		if !ok {
			return nil, false
		}
		return *x, true
	}
	x, ok := v.fv.Interface().([]T)
	return x, ok
}

func isInt(k reflect.Kind) bool  { return k >= reflect.Int && k <= reflect.Int64 }
func isUint(k reflect.Kind) bool { return k >= reflect.Uint && k <= reflect.Uint64 }

// wrong is the error for a value whose Go type the field cannot take.
func (v value) wrong(want string) error {
	return fmt.Errorf("%w: got %v, want %s", ErrBadValue, v.fv.Kind(), want)
}

// bits returns the NDR bit pattern of a numeric or boolean value; the low
// op.size bytes are what the wire carries. Any Go integer type fills an
// integer field — in two's complement, signed types sign-extended, the low
// bytes are the C conversion whatever the field's signedness.
func (v value) bits(op *fieldOp) (uint64, error) {
	fv, k := v.fv, v.fv.Kind()
	switch op.kind {
	case Int, Uint, Char:
		if isInt(k) {
			return uint64(fv.Int()), nil
		} else if isUint(k) {
			return fv.Uint(), nil
		}
	case Float:
		var x float64
		switch {
		case k == reflect.Float32 || k == reflect.Float64:
			x = fv.Float()
		case isInt(k):
			x = float64(fv.Int())
		default:
			return 0, v.wrong("float")
		}
		if op.size == 4 {
			return uint64(math.Float32bits(float32(x))), nil
		}
		return math.Float64bits(x), nil
	case Bool:
		if k == reflect.Bool && fv.Bool() {
			return 1, nil
		} else if k == reflect.Bool {
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("%w: unknown kind %v", ErrBadValue, op.kind)
	}
	return 0, v.wrong(op.kind.String())
}

func (v value) str() (string, error) {
	if v.fv.Kind() != reflect.String {
		return "", v.wrong("string")
	}
	return v.fv.String(), nil
}

// record returns the nested record v holds: a bound struct, directly or
// behind pointers, or a generic Record. ok is false for a nil pointer, which
// encodes as a zero record.
func (v value) record() (goRecord, bool, error) {
	fv := v.fv
	for fv.Kind() == reflect.Ptr {
		if fv.IsNil() {
			return goRecord{}, false, nil
		}
		fv = fv.Elem()
	}
	if v.kid != nil {
		return goRecord{rv: fv, b: v.kid}, true, nil
	}
	if fv.Kind() == reflect.Map {
		switch x := fv.Interface().(type) {
		case Record:
			return goRecord{rec: x}, true, nil
		case map[string]interface{}:
			return goRecord{rec: x}, true, nil
		}
	}
	return goRecord{}, false, v.wrong("Record")
}

// len is the length of an array value: any slice or array will do, and an
// absent one is empty.
func (v value) len() (int, error) {
	switch v.fv.Kind() {
	case reflect.Slice, reflect.Array:
		return v.fv.Len(), nil
	case reflect.Invalid:
		return 0, nil
	}
	return 0, v.wrong("slice")
}

// index returns element i of an array value.
func (v value) index(i int) value {
	e := v.fv.Index(i)
	if e.Kind() == reflect.Interface {
		e = e.Elem()
	}
	return value{fv: e, kid: v.kid}
}
