package pbio

import (
	"errors"
	"fmt"
	"reflect"

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
	ErrMissingField  = errors.New("pbio: record missing field")
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
	return f.AppendEncode(make([]byte, 0, f.Size*2), rec)
}

// AppendEncode appends the encoded record to dst and returns the extended
// slice, allowing buffer reuse on hot paths.
func (f *Format) AppendEncode(dst []byte, rec Record) ([]byte, error) {
	base := len(dst)
	dst = append(dst, make([]byte, f.Size)...)
	out, err := f.encodeFixed(dst, base, base, rec)
	if err == nil {
		n := int64(len(out) - base)
		f.obs.encodeCalls.Add(1)
		f.obs.encodeBytes.Add(n)
		f.facct.encRecords.Add(1)
		f.facct.encBytes.Add(n)
		f.maybeProbeExpansion(rec, int(n))
	}
	return out, err
}

// encodeFixed fills in the fixed region of one (possibly nested) record
// whose region starts at fixedBase, appending variable data at the end of
// dst. recBase is the start of the outermost record; all references are
// relative to it.
func (f *Format) encodeFixed(dst []byte, recBase, fixedBase int, rec Record) ([]byte, error) {
	counts, err := f.dynamicCounts(rec)
	if err != nil {
		return nil, err
	}
	order := f.Arch.Order
	for i := range f.Fields {
		fl := &f.Fields[i]
		off := fixedBase + fl.Offset
		val, ok := rec[fl.Name]
		if !ok || val == nil {
			if n, isCount := counts[fl.Name]; isCount {
				// Auto-filled count field.
				machine.PutUint(dst[off:], order, fl.ElemSize, machine.TruncInt(int64(n), fl.ElemSize))
			}
			continue // zero value already in place
		}
		if n, isCount := counts[fl.Name]; isCount {
			// Explicit count value must agree with the array length.
			given, err := coerceInt(val)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", fl.Name, err)
			}
			if given != int64(n) {
				return nil, fmt.Errorf("%w: field %q is %d, array has %d elements",
					ErrBadCount, fl.Name, given, n)
			}
		}
		switch {
		case fl.Dynamic:
			dst, err = f.encodeDynamic(dst, recBase, off, fl, val)
		case fl.Count > 1:
			dst, err = f.encodeStaticArray(dst, recBase, off, fl, val)
		default:
			dst, err = f.encodeScalar(dst, recBase, off, fl, val)
		}
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", fl.Name, err)
		}
	}
	return dst, nil
}

// dynamicCounts computes the length of every dynamic array in rec, keyed by
// the *count field* name.
func (f *Format) dynamicCounts(rec Record) (map[string]int, error) {
	var counts map[string]int
	for i := range f.Fields {
		fl := &f.Fields[i]
		if !fl.Dynamic {
			continue
		}
		n := 0
		if val, ok := rec[fl.Name]; ok && val != nil {
			sl, err := asSlice(val)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", fl.Name, err)
			}
			n = sl.Len()
		}
		if counts == nil {
			counts = make(map[string]int)
		}
		if prev, ok := counts[fl.CountField]; ok && prev != n {
			return nil, fmt.Errorf("%w: count field %q shared by arrays of length %d and %d",
				ErrBadCount, fl.CountField, prev, n)
		}
		counts[fl.CountField] = n
	}
	return counts, nil
}

func (f *Format) encodeScalar(dst []byte, recBase, off int, fl *Field, val interface{}) ([]byte, error) {
	order := f.Arch.Order
	switch fl.Kind {
	case Int, Char:
		v, err := coerceInt(val)
		if err != nil {
			return nil, err
		}
		machine.PutUint(dst[off:], order, fl.ElemSize, machine.TruncInt(v, fl.ElemSize))
	case Uint:
		v, err := coerceUint(val)
		if err != nil {
			return nil, err
		}
		machine.PutUint(dst[off:], order, fl.ElemSize, v)
	case Float:
		v, err := coerceFloat(val)
		if err != nil {
			return nil, err
		}
		machine.PutFloat(dst[off:], order, fl.ElemSize, v)
	case Bool:
		v, ok := val.(bool)
		if !ok {
			return nil, fmt.Errorf("%w: got %T, want bool", ErrBadValue, val)
		}
		if v {
			dst[off] = 1
		}
	case String:
		s, ok := val.(string)
		if !ok {
			return nil, fmt.Errorf("%w: got %T, want string", ErrBadValue, val)
		}
		return f.encodeStringRef(dst, recBase, off, s)
	case Nested:
		sub, err := asRecord(val)
		if err != nil {
			return nil, err
		}
		return fl.Nested.encodeFixed(dst, recBase, off, sub)
	default:
		return nil, fmt.Errorf("%w: unknown kind %v", ErrBadValue, fl.Kind)
	}
	return dst, nil
}

// encodeStringRef appends s (NUL-terminated) to the variable region and
// stores its offset in the pointer slot at off. The empty string encodes as
// a NULL pointer — decode collapses NULL and "" anyway, and the convention
// makes decode-then-encode idempotent (MatchBinary relies on that).
func (f *Format) encodeStringRef(dst []byte, recBase, off int, s string) ([]byte, error) {
	if s == "" {
		return dst, nil
	}
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			return nil, ErrStringHasNUL
		}
	}
	ref := len(dst) - recBase
	dst = append(dst, s...)
	dst = append(dst, 0)
	machine.PutUint(dst[off:], f.Arch.Order, f.Arch.PointerSize, uint64(ref))
	return dst, nil
}

func (f *Format) encodeStaticArray(dst []byte, recBase, off int, fl *Field, val interface{}) ([]byte, error) {
	sl, err := asSlice(val)
	if err != nil {
		return nil, err
	}
	if sl.Len() > fl.Count {
		return nil, fmt.Errorf("%w: %d values for static array of %d", ErrBadCount, sl.Len(), fl.Count)
	}
	for i := 0; i < sl.Len(); i++ {
		dst, err = f.encodeScalarElem(dst, recBase, off+i*fl.ElemSize, fl, sl.Index(i).Interface())
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// encodeScalarElem encodes one array element at an explicit offset; it is
// encodeScalar minus the static-array/dynamic dispatch.
func (f *Format) encodeScalarElem(dst []byte, recBase, off int, fl *Field, val interface{}) ([]byte, error) {
	elem := *fl
	elem.Count = 1
	elem.Dynamic = false
	return f.encodeScalar(dst, recBase, off, &elem, val)
}

// encodeDynamic appends the array elements to the variable region, aligned
// for their element type, and stores the offset in the pointer slot.
func (f *Format) encodeDynamic(dst []byte, recBase, slotOff int, fl *Field, val interface{}) ([]byte, error) {
	sl, err := asSlice(val)
	if err != nil {
		return nil, err
	}
	n := sl.Len()
	if n == 0 {
		return dst, nil // nil pointer slot, zero count
	}
	dst, start := f.reserveDynamic(dst, recBase, fl, n)
	if done, err := f.encodeTypedElems(dst, start, fl, val); err != nil {
		return nil, err
	} else if !done {
		for i := 0; i < n; i++ {
			dst, err = f.encodeScalarElem(dst, recBase, start+i*fl.ElemSize, fl, sl.Index(i).Interface())
			if err != nil {
				return nil, err
			}
		}
	}
	machine.PutUint(dst[slotOff:], f.Arch.Order, f.Arch.PointerSize, uint64(start-recBase))
	return dst, nil
}

// reserveDynamic appends zeroed room for n elements of the dynamic array fl
// to the variable region, aligned for the element type so receivers can
// walk it the same way they would walk native memory. It returns the grown
// buffer and where in it the elements start; the pointer slot holds that
// position relative to recBase.
func (f *Format) reserveDynamic(dst []byte, recBase int, fl *Field, n int) ([]byte, int) {
	align := f.Arch.Align(fl.ElemSize)
	if fl.Kind == Nested {
		align = fl.Nested.Align
	}
	pad := alignUp(len(dst)-recBase, align) - (len(dst) - recBase)
	dst = append(dst, make([]byte, pad)...)
	start := len(dst)
	return append(dst, make([]byte, n*fl.ElemSize)...), start
}

// encodeTypedElems writes the elements of common typed numeric slices
// without per-element reflection — the hot path for bulk scientific data.
// It reports whether it handled the value.
func (f *Format) encodeTypedElems(dst []byte, start int, fl *Field, val interface{}) (bool, error) {
	order := f.Arch.Order
	size := fl.ElemSize
	switch fl.Kind {
	case Int, Char:
		if v, ok := val.([]int64); ok {
			for i, x := range v {
				machine.PutUint(dst[start+i*size:], order, size, machine.TruncInt(x, size))
			}
			return true, nil
		}
	case Uint:
		if v, ok := val.([]uint64); ok {
			for i, x := range v {
				machine.PutUint(dst[start+i*size:], order, size, x)
			}
			return true, nil
		}
	case Float:
		if v, ok := val.([]float64); ok {
			for i, x := range v {
				machine.PutFloat(dst[start+i*size:], order, size, x)
			}
			return true, nil
		}
	case Bool:
		if v, ok := val.([]bool); ok {
			for i, x := range v {
				if x {
					dst[start+i] = 1
				}
			}
			return true, nil
		}
	}
	return false, nil
}

// --- value coercion -------------------------------------------------------

func coerceInt(val interface{}) (int64, error) {
	switch v := val.(type) {
	case int:
		return int64(v), nil
	case int8:
		return int64(v), nil
	case int16:
		return int64(v), nil
	case int32:
		return int64(v), nil
	case int64:
		return v, nil
	case uint:
		return int64(v), nil
	case uint8:
		return int64(v), nil
	case uint16:
		return int64(v), nil
	case uint32:
		return int64(v), nil
	case uint64:
		return int64(v), nil
	default:
		return 0, fmt.Errorf("%w: got %T, want integer", ErrBadValue, val)
	}
}

func coerceUint(val interface{}) (uint64, error) {
	switch v := val.(type) {
	case uint:
		return uint64(v), nil
	case uint8:
		return uint64(v), nil
	case uint16:
		return uint64(v), nil
	case uint32:
		return uint64(v), nil
	case uint64:
		return v, nil
	case int:
		return uint64(v), nil
	case int8:
		return uint64(v), nil
	case int16:
		return uint64(v), nil
	case int32:
		return uint64(v), nil
	case int64:
		return uint64(v), nil
	default:
		return 0, fmt.Errorf("%w: got %T, want unsigned integer", ErrBadValue, val)
	}
}

func coerceFloat(val interface{}) (float64, error) {
	switch v := val.(type) {
	case float32:
		return float64(v), nil
	case float64:
		return v, nil
	case int:
		return float64(v), nil
	case int64:
		return float64(v), nil
	default:
		return 0, fmt.Errorf("%w: got %T, want float", ErrBadValue, val)
	}
}

func asRecord(val interface{}) (Record, error) {
	switch v := val.(type) {
	case Record:
		return v, nil
	case map[string]interface{}:
		return Record(v), nil
	default:
		return nil, fmt.Errorf("%w: got %T, want Record", ErrBadValue, val)
	}
}

// asSlice views any slice or array value reflectively.
func asSlice(val interface{}) (reflect.Value, error) {
	rv := reflect.ValueOf(val)
	if rv.Kind() != reflect.Slice && rv.Kind() != reflect.Array {
		return reflect.Value{}, fmt.Errorf("%w: got %T, want slice", ErrBadValue, val)
	}
	return rv, nil
}
