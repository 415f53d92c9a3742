package pbio

import (
	"errors"
	"fmt"
	"reflect"
	"strings"

	"openmeta/internal/machine"
)

// Binding associates a message format with a concrete Go struct type — the
// paper's "binding" step. Construction analyzes the pairing once (matching
// fields by name or `pbio` tag, resolving index paths, building child
// bindings for nested formats) so that Encode and Decode run from
// precomputed tables. This per-pair preparation is the Go analogue of PBIO's
// dynamically generated conversion routines: the expensive analysis happens
// once per (format, type), not once per message.
//
// Bindings implement PBIO's restricted format evolution: format fields with
// no matching struct field are skipped on decode and encoded as zero values;
// struct fields with no matching format field are left untouched. A receiver
// bound to an older struct therefore tolerates records whose format has
// grown new fields.
type Binding struct {
	// Format is the bound message format.
	Format *Format
	// Type is the bound struct type.
	Type reflect.Type

	progs []fieldProg
}

type fieldProg struct {
	fl  *Field
	idx int // struct field index, -1 if unbound
	// isCount marks fields that carry a dynamic array's length; on encode
	// they are always derived from the array, never from the struct, so the
	// count and the data cannot disagree.
	isCount bool
	// lenOf is the struct index of the slice whose length drives this count
	// field on encode (-1 when the array itself is unbound: count is 0).
	lenOf int
	child *Binding // for nested fields
}

// Binding errors.
var (
	ErrNotStruct    = errors.New("pbio: binding requires a struct or pointer to struct")
	ErrNoBoundField = errors.New("pbio: no struct field matches any format field")
	ErrTypeMismatch = errors.New("pbio: struct field type incompatible with format field")
)

// Bind analyzes the pairing of format f with the struct type of sample
// (a struct value or pointer to struct).
func (f *Format) Bind(sample interface{}) (*Binding, error) {
	t := reflect.TypeOf(sample)
	for t != nil && t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("%w: got %T", ErrNotStruct, sample)
	}
	return f.bindType(t)
}

func (f *Format) bindType(t reflect.Type) (*Binding, error) {
	b := &Binding{Format: f, Type: t, progs: make([]fieldProg, 0, len(f.Fields))}

	// Index the struct fields by every name they answer to.
	byName := make(map[string]int)
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		if tag, ok := sf.Tag.Lookup("pbio"); ok && tag != "" && tag != "-" {
			byName[tag] = i
			continue
		}
		byName[sf.Name] = i
		lower := strings.ToLower(sf.Name)
		if _, taken := byName[lower]; !taken {
			byName[lower] = i
		}
	}
	match := func(name string) int {
		if i, ok := byName[name]; ok {
			return i
		}
		if i, ok := byName[strings.ToLower(name)]; ok {
			return i
		}
		return -1
	}

	// Every dynamic array's count field is driven by the array binding.
	lenOf := make(map[string]int)
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.Dynamic {
			lenOf[fl.CountField] = match(fl.Name) // -1 when the array is unbound
		}
	}

	bound := 0
	for i := range f.Fields {
		fl := &f.Fields[i]
		prog := fieldProg{fl: fl, idx: match(fl.Name), lenOf: -1}
		if li, ok := lenOf[fl.Name]; ok {
			prog.isCount = true
			prog.lenOf = li
		}
		if prog.idx >= 0 {
			sf := t.Field(prog.idx)
			if err := checkBindable(fl, sf.Type); err != nil {
				return nil, fmt.Errorf("field %q -> %s.%s: %w", fl.Name, t.Name(), sf.Name, err)
			}
			if fl.Kind == Nested {
				elem := sf.Type
				for elem.Kind() == reflect.Slice || elem.Kind() == reflect.Array || elem.Kind() == reflect.Ptr {
					elem = elem.Elem()
				}
				child, err := fl.Nested.bindType(elem)
				if err != nil {
					return nil, err
				}
				prog.child = child
			}
			bound++
		}
		b.progs = append(b.progs, prog)
	}
	if bound == 0 {
		return nil, fmt.Errorf("%w: format %q, type %s", ErrNoBoundField, f.Name, t)
	}
	return b, nil
}

// checkBindable validates that a struct field's type can hold the format
// field's values.
func checkBindable(fl *Field, t reflect.Type) error {
	if fl.Dynamic || fl.Count > 1 {
		if t.Kind() != reflect.Slice && t.Kind() != reflect.Array {
			return fmt.Errorf("%w: %s needs a slice or array, got %s", ErrTypeMismatch, fl.TypeString(), t)
		}
		t = t.Elem()
	}
	switch fl.Kind {
	case Int, Char, Uint:
		switch t.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return nil
		}
	case Float:
		switch t.Kind() {
		case reflect.Float32, reflect.Float64:
			return nil
		}
	case Bool:
		if t.Kind() == reflect.Bool {
			return nil
		}
	case String:
		if t.Kind() == reflect.String {
			return nil
		}
	case Nested:
		if t.Kind() == reflect.Ptr {
			t = t.Elem()
		}
		if t.Kind() == reflect.Struct {
			return nil
		}
	}
	return fmt.Errorf("%w: %s field cannot bind to %s", ErrTypeMismatch, fl.Kind, t)
}

// Encode marshals a bound struct value (or pointer to one) into NDR form.
func (b *Binding) Encode(v interface{}) ([]byte, error) {
	return b.AppendEncode(make([]byte, 0, b.Format.Size*2), v)
}

// AppendEncode appends the encoded struct to dst for buffer reuse.
func (b *Binding) AppendEncode(dst []byte, v interface{}) ([]byte, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Ptr {
		if rv.IsNil() {
			return nil, fmt.Errorf("pbio: encode nil %s", rv.Type())
		}
		rv = rv.Elem()
	}
	if rv.Type() != b.Type {
		return nil, fmt.Errorf("%w: bound to %s, got %s", ErrTypeMismatch, b.Type, rv.Type())
	}
	base := len(dst)
	dst = append(dst, make([]byte, b.Format.Size)...)
	out, err := b.encodeFixed(dst, base, base, rv)
	if err == nil {
		b.Format.obs.encodeCalls.Add(1)
		b.Format.obs.encodeBytes.Add(int64(len(out) - base))
	}
	return out, err
}

func (b *Binding) encodeFixed(dst []byte, recBase, fixedBase int, rv reflect.Value) ([]byte, error) {
	f := b.Format
	order := f.Arch.Order
	var err error
	for pi := range b.progs {
		prog := &b.progs[pi]
		fl := prog.fl
		off := fixedBase + fl.Offset
		if prog.isCount {
			// Count fields always mirror the bound slice's length (zero when
			// the array itself is unbound), never a struct value.
			n := 0
			if prog.lenOf >= 0 {
				n = rv.Field(prog.lenOf).Len()
			}
			machine.PutUint(dst[off:], order, fl.ElemSize, machine.TruncInt(int64(n), fl.ElemSize))
			continue
		}
		if prog.idx < 0 {
			continue // unbound: zero value
		}
		fv := rv.Field(prog.idx)
		switch {
		case fl.Dynamic:
			dst, err = b.encodeDynamic(dst, recBase, off, prog, fv)
		case fl.Count > 1:
			n := fv.Len()
			if n > fl.Count {
				err = fmt.Errorf("%w: %d values for static array of %d", ErrBadCount, n, fl.Count)
				break
			}
			for i := 0; i < n && err == nil; i++ {
				dst, err = b.encodeElem(dst, recBase, off+i*fl.ElemSize, prog, fv.Index(i))
			}
		default:
			dst, err = b.encodeElem(dst, recBase, off, prog, fv)
		}
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", fl.Name, err)
		}
	}
	return dst, nil
}

func (b *Binding) encodeElem(dst []byte, recBase, off int, prog *fieldProg, fv reflect.Value) ([]byte, error) {
	f := b.Format
	fl := prog.fl
	order := f.Arch.Order
	switch fl.Kind {
	case Int, Char:
		machine.PutUint(dst[off:], order, fl.ElemSize, machine.TruncInt(reflectInt(fv), fl.ElemSize))
	case Uint:
		machine.PutUint(dst[off:], order, fl.ElemSize, reflectUint(fv))
	case Float:
		machine.PutFloat(dst[off:], order, fl.ElemSize, fv.Float())
	case Bool:
		if fv.Bool() {
			dst[off] = 1
		}
	case String:
		return f.encodeStringRef(dst, recBase, off, fv.String())
	case Nested:
		for fv.Kind() == reflect.Ptr {
			if fv.IsNil() {
				return dst, nil // zero nested record
			}
			fv = fv.Elem()
		}
		return prog.child.encodeFixed(dst, recBase, off, fv)
	}
	return dst, nil
}

func (b *Binding) encodeDynamic(dst []byte, recBase, slotOff int, prog *fieldProg, fv reflect.Value) ([]byte, error) {
	f := b.Format
	fl := prog.fl
	n := fv.Len()
	if n == 0 {
		return dst, nil
	}
	dst, start := f.reserveDynamic(dst, recBase, fl, n)
	var err error
	for i := 0; i < n; i++ {
		dst, err = b.encodeElem(dst, recBase, start+i*fl.ElemSize, prog, fv.Index(i))
		if err != nil {
			return nil, err
		}
	}
	machine.PutUint(dst[slotOff:], f.Arch.Order, f.Arch.PointerSize, uint64(start-recBase))
	return dst, nil
}

// Decode unmarshals an NDR record into out, which must be a non-nil pointer
// to the bound struct type. Values are converted from the source format's
// representation (byte order, integer and float sizes) to the struct's —
// the "receiver makes right" conversion the paper describes, applied only
// when representations differ.
func (b *Binding) Decode(data []byte, out interface{}) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("pbio: decode target must be a non-nil pointer, got %T", out)
	}
	rv = rv.Elem()
	if rv.Type() != b.Type {
		return fmt.Errorf("%w: bound to %s, got %s", ErrTypeMismatch, b.Type, rv.Type())
	}
	if len(data) < b.Format.Size {
		return fmt.Errorf("%w: %d bytes, fixed region needs %d", ErrTruncated, len(data), b.Format.Size)
	}
	if err := b.decodeFixed(data, 0, rv); err != nil {
		return err
	}
	b.Format.obs.decodeCalls.Add(1)
	b.Format.obs.decodeBytes.Add(int64(len(data)))
	return nil
}

func (b *Binding) decodeFixed(data []byte, fixedBase int, rv reflect.Value) error {
	f := b.Format
	if fixedBase < 0 || fixedBase+f.Size > len(data) {
		return fmt.Errorf("%w: nested record at %d exceeds %d bytes", ErrTruncated, fixedBase, len(data))
	}
	for pi := range b.progs {
		prog := &b.progs[pi]
		fl := prog.fl
		if prog.idx < 0 {
			continue
		}
		off := fixedBase + fl.Offset
		fv := rv.Field(prog.idx)
		var err error
		switch {
		case fl.Dynamic:
			err = b.decodeDynamic(data, fixedBase, off, prog, fv)
		case fl.Count > 1:
			err = b.decodeArrayInto(data, off, fl.Count, prog, fv)
		default:
			err = b.decodeElem(data, off, prog, fv)
		}
		if err != nil {
			return fmt.Errorf("field %q: %w", fl.Name, err)
		}
	}
	return nil
}

func (b *Binding) decodeElem(data []byte, off int, prog *fieldProg, fv reflect.Value) error {
	f := b.Format
	fl := prog.fl
	order := f.Arch.Order
	switch fl.Kind {
	case Int, Char:
		raw := machine.Uint(data[off:], order, fl.ElemSize)
		return setInt(fv, machine.SignExtend(raw, fl.ElemSize))
	case Uint:
		return setUint(fv, machine.Uint(data[off:], order, fl.ElemSize))
	case Float:
		fv.SetFloat(machine.Float(data[off:], order, fl.ElemSize))
	case Bool:
		fv.SetBool(data[off] != 0)
	case String:
		s, err := f.decodeString(data, off)
		if err != nil {
			return err
		}
		fv.SetString(s)
	case Nested:
		if fv.Kind() == reflect.Ptr {
			if fv.IsNil() {
				fv.Set(reflect.New(fv.Type().Elem()))
			}
			fv = fv.Elem()
		}
		return prog.child.decodeFixed(data, off, fv)
	}
	return nil
}

func (b *Binding) decodeArrayInto(data []byte, off, n int, prog *fieldProg, fv reflect.Value) error {
	fl := prog.fl
	if off < 0 || off+n*fl.ElemSize > len(data) {
		return fmt.Errorf("%w: array of %d x %d bytes at %d in %d-byte record",
			ErrBadReference, n, fl.ElemSize, off, len(data))
	}
	if fv.Kind() == reflect.Slice {
		if fv.Cap() >= n {
			fv.SetLen(n)
		} else {
			fv.Set(reflect.MakeSlice(fv.Type(), n, n))
		}
	} else if fv.Len() < n {
		return fmt.Errorf("%w: %d elements into array of %d", ErrBadCount, n, fv.Len())
	}
	for i := 0; i < n; i++ {
		if err := b.decodeElem(data, off+i*fl.ElemSize, prog, fv.Index(i)); err != nil {
			return err
		}
	}
	return nil
}

func (b *Binding) decodeDynamic(data []byte, fixedBase, slotOff int, prog *fieldProg, fv reflect.Value) error {
	ref, n, err := b.Format.dynamicRef(data, fixedBase, prog.fl, slotOff)
	if err != nil {
		return err
	}
	if n == 0 {
		if fv.Kind() == reflect.Slice {
			fv.SetLen(0)
		}
		return nil
	}
	return b.decodeArrayInto(data, ref, n, prog, fv)
}

// --- reflect numeric helpers ----------------------------------------------

func reflectInt(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return int64(v.Uint())
	default:
		return v.Int()
	}
}

func reflectUint(v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return uint64(v.Int())
	default:
		return v.Uint()
	}
}

func setInt(v reflect.Value, x int64) error {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u := uint64(x)
		if v.OverflowUint(u) {
			return fmt.Errorf("%w: value %d overflows %s", ErrTypeMismatch, x, v.Type())
		}
		v.SetUint(u)
	default:
		if v.OverflowInt(x) {
			return fmt.Errorf("%w: value %d overflows %s", ErrTypeMismatch, x, v.Type())
		}
		v.SetInt(x)
	}
	return nil
}

func setUint(v reflect.Value, x uint64) error {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		i := int64(x)
		if i < 0 || v.OverflowInt(i) {
			return fmt.Errorf("%w: value %d overflows %s", ErrTypeMismatch, x, v.Type())
		}
		v.SetInt(i)
	default:
		if v.OverflowUint(x) {
			return fmt.Errorf("%w: value %d overflows %s", ErrTypeMismatch, x, v.Type())
		}
		v.SetUint(x)
	}
	return nil
}
