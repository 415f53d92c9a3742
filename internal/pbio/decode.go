package pbio

import (
	"fmt"

	"openmeta/internal/machine"
)

// Decode unmarshals an NDR record encoded with format f (possibly on a
// different architecture — f carries the origin's byte order and sizes) into
// a generic Record. Scalar integers decode to int64, unsigned to uint64,
// floats to float64, chars to int64, booleans to bool and strings to string;
// arrays decode to typed slices of those; nested records decode to Record.
func (f *Format) Decode(data []byte) (Record, error) {
	if len(data) < f.Size {
		return nil, fmt.Errorf("%w: %d bytes, fixed region needs %d", ErrTruncated, len(data), f.Size)
	}
	if len(data) > MaxRecordSize {
		return nil, ErrRecordTooBig
	}
	rec, err := f.decodeFixed(data, 0)
	if err == nil {
		f.obs.decodeCalls.Add(1)
		f.obs.decodeBytes.Add(int64(len(data)))
		f.facct.decRecords.Add(1)
		f.facct.decBytes.Add(int64(len(data)))
	}
	return rec, err
}

// decodeFixed decodes one (possibly nested) record whose fixed region starts
// at fixedBase. Variable-region references are relative to the start of
// data (the outermost record).
func (f *Format) decodeFixed(data []byte, fixedBase int) (Record, error) {
	if fixedBase < 0 || fixedBase+f.Size > len(data) {
		return nil, fmt.Errorf("%w: nested record at %d exceeds %d bytes",
			ErrTruncated, fixedBase, len(data))
	}
	rec := make(Record, len(f.Fields))
	for i := range f.Fields {
		fl := &f.Fields[i]
		off := fixedBase + fl.Offset
		var (
			val interface{}
			err error
		)
		switch {
		case fl.Dynamic:
			val, err = f.decodeDynamic(data, fixedBase, fl, off)
		case fl.Count > 1:
			val, err = f.decodeArray(data, fl, off, fl.Count)
		default:
			val, err = f.decodeScalar(data, fl, off)
		}
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", fl.Name, err)
		}
		rec[fl.Name] = val
	}
	return rec, nil
}

func (f *Format) decodeScalar(data []byte, fl *Field, off int) (interface{}, error) {
	order := f.Arch.Order
	switch fl.Kind {
	case Int, Char:
		raw := machine.Uint(data[off:], order, fl.ElemSize)
		return machine.SignExtend(raw, fl.ElemSize), nil
	case Uint:
		return machine.Uint(data[off:], order, fl.ElemSize), nil
	case Float:
		return machine.Float(data[off:], order, fl.ElemSize), nil
	case Bool:
		return data[off] != 0, nil
	case String:
		return f.decodeString(data, off)
	case Nested:
		return fl.Nested.decodeFixed(data, off)
	default:
		return nil, fmt.Errorf("%w: unknown kind %v", ErrBadValue, fl.Kind)
	}
}

// decodeString follows the pointer slot at off into the variable region and
// reads a NUL-terminated string. A zero reference is a NULL char* and
// decodes as the empty string.
func (f *Format) decodeString(data []byte, off int) (string, error) {
	ref := machine.Uint(data[off:], f.Arch.Order, f.Arch.PointerSize)
	if ref == 0 {
		return "", nil
	}
	if ref >= uint64(len(data)) {
		return "", fmt.Errorf("%w: string at %d in %d-byte record", ErrBadReference, ref, len(data))
	}
	start := int(ref)
	for i := start; i < len(data); i++ {
		if data[i] == 0 {
			return string(data[start:i]), nil
		}
	}
	return "", fmt.Errorf("%w: unterminated string at %d", ErrBadReference, ref)
}

// decodeArray decodes n consecutive elements starting at off into a typed
// slice.
func (f *Format) decodeArray(data []byte, fl *Field, off, n int) (interface{}, error) {
	if off < 0 || n < 0 || off+n*fl.ElemSize > len(data) {
		return nil, fmt.Errorf("%w: array of %d x %d bytes at %d in %d-byte record",
			ErrBadReference, n, fl.ElemSize, off, len(data))
	}
	order := f.Arch.Order
	switch fl.Kind {
	case Int, Char:
		out := make([]int64, n)
		for i := range out {
			raw := machine.Uint(data[off+i*fl.ElemSize:], order, fl.ElemSize)
			out[i] = machine.SignExtend(raw, fl.ElemSize)
		}
		return out, nil
	case Uint:
		out := make([]uint64, n)
		for i := range out {
			out[i] = machine.Uint(data[off+i*fl.ElemSize:], order, fl.ElemSize)
		}
		return out, nil
	case Float:
		out := make([]float64, n)
		for i := range out {
			out[i] = machine.Float(data[off+i*fl.ElemSize:], order, fl.ElemSize)
		}
		return out, nil
	case Bool:
		out := make([]bool, n)
		for i := range out {
			out[i] = data[off+i] != 0
		}
		return out, nil
	case String:
		out := make([]string, n)
		for i := range out {
			s, err := f.decodeString(data, off+i*fl.ElemSize)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	case Nested:
		out := make([]Record, n)
		for i := range out {
			sub, err := fl.Nested.decodeFixed(data, off+i*fl.ElemSize)
			if err != nil {
				return nil, err
			}
			out[i] = sub
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %v", ErrBadValue, fl.Kind)
	}
}

// decodeDynamic reads the count field, follows the pointer slot and decodes
// the variable-region elements.
func (f *Format) decodeDynamic(data []byte, fixedBase int, fl *Field, slotOff int) (interface{}, error) {
	ref, n, err := f.dynamicRef(data, fixedBase, fl, slotOff)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return f.emptyArray(fl), nil
	}
	return f.decodeArray(data, fl, ref, n)
}

// dynamicRef is the one validation of a dynamic array's count field and
// pointer slot, shared by the generic and the bound decoder: it returns
// where the elements start and how many there are, or n == 0 for an empty
// array (whose pointer slot is not consulted). Both values come off the
// wire, so neither is believed until checked against the record.
func (f *Format) dynamicRef(data []byte, fixedBase int, fl *Field, slotOff int) (ref, n int, err error) {
	cf := &f.Fields[f.byName[fl.CountField]]
	raw := machine.Uint(data[fixedBase+cf.Offset:], f.Arch.Order, cf.ElemSize)
	count := machine.SignExtend(raw, cf.ElemSize)
	if cf.Kind == Uint {
		count = int64(raw)
	}
	if count < 0 {
		return 0, 0, fmt.Errorf("%w: negative count %d", ErrCountMismatch, count)
	}
	if count == 0 {
		return 0, 0, nil
	}
	if count*int64(fl.ElemSize) > int64(len(data)) {
		return 0, 0, fmt.Errorf("%w: count %d x %d bytes exceeds record size %d",
			ErrBadReference, count, fl.ElemSize, len(data))
	}
	at := machine.Uint(data[slotOff:], f.Arch.Order, f.Arch.PointerSize)
	if at == 0 {
		return 0, 0, fmt.Errorf("%w: count %d but nil array pointer", ErrCountMismatch, count)
	}
	if at >= uint64(len(data)) {
		return 0, 0, fmt.Errorf("%w: array at %d in %d-byte record", ErrBadReference, at, len(data))
	}
	return int(at), int(count), nil
}

// emptyArray returns the canonical zero-length slice for the field's kind,
// so callers always see the same types regardless of array length.
func (f *Format) emptyArray(fl *Field) interface{} {
	switch fl.Kind {
	case Int, Char:
		return []int64{}
	case Uint:
		return []uint64{}
	case Float:
		return []float64{}
	case Bool:
		return []bool{}
	case String:
		return []string{}
	case Nested:
		return []Record{}
	default:
		return nil
	}
}
