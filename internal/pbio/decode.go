package pbio

import (
	"fmt"
	"math"
	"reflect"

	"openmeta/internal/machine"
)

// Decode unmarshals an NDR record encoded with format f (possibly on a
// different architecture — f carries the origin's byte order and sizes) into
// a generic Record. Scalar integers decode to int64, unsigned to uint64,
// floats to float64, chars to int64, booleans to bool and strings to string;
// arrays decode to typed slices of those; nested records decode to Record.
//
// A decode allocates the record's maps and one block (slab.go) that holds
// its numbers, its strings with their bytes, and its numeric and bool arrays
// with their backing arrays, for the record and every record nested in it.
// A value kept after the record is dropped keeps the whole block alive:
// about the record's decoded size, roughly 10.9 KB for a 10 KB record with
// 1,200 doubles and eight strings. A block array has cap == len, so an append
// to it copies. []string and []Record arrays, and their headers, are
// allocated apart.
func (f *Format) Decode(data []byte) (Record, error) {
	return f.compiled().decode(data, goRecord{})
}

// decoder reads one record. Its strings are cut from the builder's text,
// which the pre-pass (need) sizes to their total: a record costs one string
// allocation, or none beyond its block, however many strings it has.
type decoder struct {
	data []byte
	RecordBuilder
}

// decode checks data's size, counts what the record takes (need) and fills
// dst from data. A zero dst asks for a generic Record, which decode makes and
// returns.
func (p *program) decode(data []byte, dst goRecord) (Record, error) {
	if len(data) < p.size {
		return nil, fmt.Errorf("%w: %d bytes, fixed region needs %d", ErrTruncated, len(data), p.size)
	}
	if len(data) > MaxRecordSize {
		return nil, ErrRecordTooBig
	}
	var words, text int
	if dst.b == nil || p.strings {
		words, text = p.need(data, 0)
	}
	return p.fill(data, dst, words, text)
}

// fill is the one decode walk. A generic record takes its values from a
// block of words and text bytes; a bound struct takes its strings from text.
func (p *program) fill(data []byte, dst goRecord, words, text int) (Record, error) {
	d := decoder{data: data}
	if dst.b == nil {
		d.Start(words, text)
		dst.rec = d.Record(p.format)
	} else if text > 0 {
		d.text = make([]byte, text)
	}
	if err := d.record(p, 0, dst); err != nil {
		return nil, err
	}
	p.format.noteDecode(len(data))
	return dst.rec, nil
}

// slot is where one decoded field goes: an entry of a generic Record, or a
// field of a bound struct (fv valid).
type slot struct {
	rec Record // generic: the record being filled; the field is op.name
	fv  reflect.Value
	kid *Binding // bound nested field: the binding of the struct it holds
}

// record decodes one (possibly nested) record whose fixed region starts at
// base. Variable-region references are relative to the start of data. A
// format field the bound struct does not carry is skipped.
func (d *decoder) record(p *program, base int, dst goRecord) error {
	st := slot{rec: dst.rec}
	for i := range p.ops {
		op := &p.ops[i]
		if dst.b != nil {
			bf := dst.b.fields[i]
			if bf.index < 0 {
				continue
			}
			st.fv, st.kid = dst.rv.Field(bf.index), bf.kid
		}
		at, n := base+int(op.off), int(op.count)
		var err error
		if op.dynamic {
			at, n, err = p.dynamicRef(d.data, base, op)
		}
		switch {
		case err != nil:
		case op.array():
			err = d.array(p, op, at, n, &st)
		default:
			err = d.scalar(p, op, at, &st)
		}
		if err != nil {
			return fmt.Errorf("field %q: %w", op.name, err)
		}
	}
	return nil
}

func (d *decoder) scalar(p *program, op *fieldOp, at int, st *slot) error {
	switch op.kind {
	case String:
		s, err := d.str(p, at)
		if st.rec != nil {
			st.rec[op.name] = d.Str(s)
		} else {
			st.fv.SetString(s)
		}
		return err
	case Nested:
		return d.record(op.child, at, d.nested(st, op))
	case Int, Uint, Char, Float, Bool:
		raw := machine.Uint(d.data[at:], p.order, int(op.size))
		if st.rec == nil {
			return setBits(st.fv, op, raw)
		}
		st.rec[op.name] = d.number(op, raw)
		return nil
	default:
		return fmt.Errorf("%w: unknown kind %v", ErrBadValue, op.kind)
	}
}

// str reads the string whose pointer slot is at at, cut from the block's
// text (Text).
func (d *decoder) str(p *program, at int) (string, error) {
	b, err := p.stringRef(d.data, at)
	return d.Text(b), err
}

// array decodes the n elements at at, which dynamicRef (or the fixed-region
// check, for a static array) has shown to lie inside the record. A generic
// record gets a fresh slice of the kind's decoded type, from its block for a
// numeric or bool array; a bound field is cut or grown to n and filled in
// place. A slice of a 64-bit type is filled whole by a bulk kernel; a bound
// field of any other numeric type goes through a stack buffer, so order and
// width are still decided per chunk.
func (d *decoder) array(p *program, op *fieldOp, at, n int, st *slot) error {
	size, src, fv := int(op.size), d.data[at:], st.fv
	if st.rec != nil {
		var x interface{}
		switch op.kind {
		case Int, Char:
			var s []int64
			s, x = Array[int64](&d.RecordBuilder, n)
			machine.Ints(s, src, p.order, size)
		case Uint:
			var s []uint64
			s, x = Array[uint64](&d.RecordBuilder, n)
			machine.Ints(s, src, p.order, size)
		case Float:
			var s []float64
			s, x = Array[float64](&d.RecordBuilder, n)
			machine.Floats(s, src, p.order, size)
		case Bool:
			var s []bool
			s, x = Array[bool](&d.RecordBuilder, n)
			for i := range s {
				s[i] = src[i] != 0
			}
		case String:
			s := make([]string, n)
			for i := range s {
				var err error
				if s[i], err = d.str(p, at+i*size); err != nil {
					return err
				}
			}
			x = s
		case Nested:
			s := make([]Record, n)
			for i := range s {
				s[i] = d.Record(op.child.format)
				if err := d.record(op.child, at+i*size, goRecord{rec: s[i]}); err != nil {
					return err
				}
			}
			x = s
		default:
			return fmt.Errorf("%w: unknown kind %v", ErrBadValue, op.kind)
		}
		st.rec[op.name] = x
		return nil
	}
	switch {
	case fv.Kind() != reflect.Slice:
		if fv.Len() < n {
			return fmt.Errorf("%w: %d elements into array of %d", ErrBadCount, n, fv.Len())
		}
	case fv.Cap() >= n:
		fv.SetLen(n)
	default:
		fv.Set(reflect.MakeSlice(fv.Type(), n, n))
	}
	switch op.kind {
	case String, Nested:
		for i := 0; i < n; i++ {
			if err := d.scalar(p, op, at+i*size, &slot{fv: fv.Index(i), kid: st.kid}); err != nil {
				return err
			}
		}
		return nil
	case Int, Char:
		if x, ok := typed[int64](value{fv: fv}); ok {
			machine.Ints(x, src, p.order, size)
			return nil
		}
	case Uint:
		if x, ok := typed[uint64](value{fv: fv}); ok {
			machine.Ints(x, src, p.order, size)
			return nil
		}
	case Float:
		if x, ok := typed[float64](value{fv: fv}); ok {
			machine.Floats(x, src, p.order, size)
			return nil
		}
	}
	var buf [32]uint64
	for i := 0; i < n; i += len(buf) {
		m := min(n-i, len(buf))
		machine.Ints(buf[:m], src[i*size:], p.order, size)
		for k := 0; k < m; k++ {
			if err := setBits(fv.Index(i+k), op, buf[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// nested returns the record a nested field decodes into: a fresh Record, or
// the bound struct (allocated when the field is a nil pointer).
func (d *decoder) nested(st *slot, op *fieldOp) goRecord {
	if st.rec != nil {
		sub := d.Record(op.child.format)
		st.rec[op.name] = sub
		return goRecord{rec: sub}
	}
	fv := st.fv
	if fv.Kind() == reflect.Ptr {
		if fv.IsNil() {
			fv.Set(reflect.New(fv.Type().Elem()))
		}
		fv = fv.Elem()
	}
	return goRecord{rv: fv, b: st.kid}
}

// number boxes a numeric or boolean value of a generic record, given as the
// raw, zero-extended bits read off the wire.
func (d *decoder) number(op *fieldOp, raw uint64) interface{} {
	switch op.kind {
	case Int, Char:
		return d.Int(machine.SignExtend(raw, int(op.size)))
	case Uint:
		return d.Uint(raw)
	case Float:
		return d.Float(op.float(raw))
	}
	return raw != 0
}

// setBits stores a numeric or boolean value, given as the raw, zero-extended
// bits read off the wire, in a bound field. A field too narrow for the value
// is an error, never a silent wrap.
func setBits(fv reflect.Value, op *fieldOp, raw uint64) error {
	switch op.kind {
	case Int, Char:
		i := machine.SignExtend(raw, int(op.size))
		return setInteger(fv, uint64(i), i < 0)
	case Uint:
		return setInteger(fv, raw, false)
	case Float:
		fv.SetFloat(op.float(raw))
	case Bool:
		fv.SetBool(raw != 0)
	}
	return nil
}

// float reads raw as a float of the field's size.
func (op *fieldOp) float(raw uint64) float64 {
	if op.size == 4 {
		return float64(math.Float32frombits(uint32(raw)))
	}
	return math.Float64frombits(raw)
}
