package pbio

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
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

	fields []boundField // one per format field, in the order of the program's ops
}

// boundField is what Bind resolved for one format field.
type boundField struct {
	index int      // struct field index, -1 if unbound
	kid   *Binding // nested fields: the binding of the struct they hold
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
	b := &Binding{Format: f, Type: t, fields: make([]boundField, len(f.Fields))}

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

	bound := 0
	for i := range f.Fields {
		fl := &f.Fields[i]
		bf := &b.fields[i]
		if bf.index = match(fl.Name); bf.index < 0 {
			continue
		}
		sf := t.Field(bf.index)
		if err := checkBindable(fl, sf.Type); err != nil {
			return nil, fmt.Errorf("field %q -> %s.%s: %w", fl.Name, t.Name(), sf.Name, err)
		}
		if fl.Kind == Nested {
			elem := sf.Type
			for elem.Kind() == reflect.Slice || elem.Kind() == reflect.Array || elem.Kind() == reflect.Ptr {
				elem = elem.Elem()
			}
			kid, err := fl.Nested.bindType(elem)
			if err != nil {
				return nil, err
			}
			bf.kid = kid
		}
		bound++
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
		if isInt(t.Kind()) || isUint(t.Kind()) {
			return nil
		}
	case Float:
		if t.Kind() == reflect.Float32 || t.Kind() == reflect.Float64 {
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
	return b.AppendEncode(nil, v)
}

// AppendEncode appends the encoded struct to dst for buffer reuse. Passing a
// pointer lets slice fields reach the bulk kernels without being copied.
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
	out, err := b.Format.compiled().encode(dst, goRecord{rv: rv, b: b})
	if err == nil {
		b.Format.noteEncode(len(out) - len(dst))
	}
	return out, err
}

// Decode unmarshals an NDR record into out, which must be a non-nil pointer
// to the bound struct type. Values are converted from the source format's
// representation (byte order, integer and float sizes) to the struct's —
// the "receiver makes right" conversion the paper describes, applied only
// when representations differ. Slice fields keep their capacity, so a reused
// target costs no allocation beyond the record's strings.
func (b *Binding) Decode(data []byte, out interface{}) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("pbio: decode target must be a non-nil pointer, got %T", out)
	}
	rv = rv.Elem()
	if rv.Type() != b.Type {
		return fmt.Errorf("%w: bound to %s, got %s", ErrTypeMismatch, b.Type, rv.Type())
	}
	_, err := b.Format.compiled().decode(data, goRecord{rv: rv, b: b})
	return err
}

// setInteger stores an integer read off the wire — its 64 bits of two's
// complement and whether it is negative — into a Go integer field of either
// signedness. A value the field cannot hold is an error, never a wrap.
func setInteger(v reflect.Value, bits uint64, negative bool) error {
	switch {
	case isUint(v.Kind()) && !negative && !v.OverflowUint(bits):
		v.SetUint(bits)
	case isInt(v.Kind()) && negative == (int64(bits) < 0) && !v.OverflowInt(int64(bits)):
		v.SetInt(int64(bits))
	case negative:
		return fmt.Errorf("%w: value %d overflows %s", ErrTypeMismatch, int64(bits), v.Type())
	default:
		return fmt.Errorf("%w: value %d overflows %s", ErrTypeMismatch, bits, v.Type())
	}
	return nil
}
