package xdr

import (
	"fmt"

	"openmeta/internal/pbio"
)

// This file provides a format-driven XDR codec so the same message formats
// and records used by the NDR path can travel in canonical XDR form. The
// mapping follows the conventions of rpcgen:
//
//   - integer fields of 1–4 bytes become XDR int / unsigned int (4 bytes);
//     8-byte fields become hyper / unsigned hyper;
//   - float fields become float or double by declared size;
//   - booleans become XDR bool (4 bytes);
//   - strings become XDR string (length + bytes + pad);
//   - static arrays are fixed-length arrays (elements only);
//   - dynamic arrays are variable-length arrays (length + elements); their
//     count fields are not transmitted separately (the length prefix carries
//     the information), exactly as an rpcgen-generated stub would do;
//   - nested formats encode recursively.

// EncodeRecord marshals rec according to format f in XDR form.
func EncodeRecord(f *pbio.Format, rec pbio.Record) ([]byte, error) {
	return AppendRecord(make([]byte, 0, f.Size*2), f, rec)
}

// AppendRecord appends the XDR encoding of rec to b.
func AppendRecord(b []byte, f *pbio.Format, rec pbio.Record) ([]byte, error) {
	var err error
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.IsCount() {
			continue
		}
		val := rec[fl.Name]
		switch {
		case fl.Dynamic:
			b, err = appendDynamic(b, f, fl, val)
		case fl.Count > 1:
			b, err = appendStatic(b, f, fl, val)
		default:
			b, err = appendScalar(b, f, fl, val)
		}
		if err != nil {
			return nil, fmt.Errorf("xdr: field %q: %w", fl.Name, err)
		}
	}
	return b, nil
}

func appendScalar(b []byte, f *pbio.Format, fl *pbio.Field, val interface{}) ([]byte, error) {
	switch fl.Kind {
	case pbio.Int, pbio.Char:
		v, err := toInt(val)
		if err != nil {
			return nil, err
		}
		if width(fl) == 8 {
			return AppendInt64(b, v), nil
		}
		return AppendInt32(b, int32(v)), nil
	case pbio.Uint:
		v, err := toUint(val)
		if err != nil {
			return nil, err
		}
		if width(fl) == 8 {
			return AppendUint64(b, v), nil
		}
		return AppendUint32(b, uint32(v)), nil
	case pbio.Float:
		v, err := toFloat(val)
		if err != nil {
			return nil, err
		}
		if width(fl) == 4 {
			return AppendFloat32(b, float32(v)), nil
		}
		return AppendFloat64(b, v), nil
	case pbio.Bool:
		switch v := val.(type) {
		case nil:
			return AppendBool(b, false), nil
		case bool:
			return AppendBool(b, v), nil
		default:
			return nil, fmt.Errorf("got %T, want bool", val)
		}
	case pbio.String:
		switch v := val.(type) {
		case nil:
			return AppendString(b, ""), nil
		case string:
			return AppendString(b, v), nil
		default:
			return nil, fmt.Errorf("got %T, want string", val)
		}
	case pbio.Nested:
		switch v := val.(type) {
		case nil:
			return AppendRecord(b, fl.Nested, pbio.Record{})
		case pbio.Record:
			return AppendRecord(b, fl.Nested, v)
		case map[string]interface{}:
			return AppendRecord(b, fl.Nested, pbio.Record(v))
		default:
			return nil, fmt.Errorf("got %T, want Record", val)
		}
	default:
		return nil, fmt.Errorf("unsupported kind %v", fl.Kind)
	}
}

func appendStatic(b []byte, f *pbio.Format, fl *pbio.Field, val interface{}) ([]byte, error) {
	elems, err := elements(val, fl.Count)
	if err != nil {
		return nil, err
	}
	for _, e := range elems {
		b, err = appendScalar(b, f, fl, e)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendDynamic(b []byte, f *pbio.Format, fl *pbio.Field, val interface{}) ([]byte, error) {
	elems, err := elements(val, -1)
	if err != nil {
		return nil, err
	}
	b = AppendUint32(b, uint32(len(elems)))
	for _, e := range elems {
		b, err = appendScalar(b, f, fl, e)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeRecord unmarshals an XDR record of format f, producing the same
// canonical value types as pbio.Format.Decode so results are comparable. The
// record is made by a pbio.RecordBuilder, as Format.Decode's is, from one
// block that a pre-pass (need) sizes exactly.
func DecodeRecord(f *pbio.Format, data []byte) (pbio.Record, error) {
	var b pbio.RecordBuilder
	words, text, _ := need(NewDecoder(data), f)
	b.Start(words, text)
	d := NewDecoder(data)
	rec, err := decodeInto(d, &b, f)
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return rec, nil
}

// need is DecodeRecord's pre-pass: the words and text bytes of the block
// that the record at d takes, each value priced by pbio (BlockWords). It
// reads only the lengths of strings and dynamic arrays (and checks a
// string's padding) and steps over everything else. Where it cannot go on
// (ok false) the decode walk fails too, with the reason.
func need(d *Decoder, f *pbio.Format) (words, text int, ok bool) {
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.IsCount() {
			continue
		}
		n := fl.Count
		if fl.Dynamic {
			c, err := d.Uint32()
			if err != nil || int(c)*4 > d.Remaining() {
				return words, text, false
			}
			cf, _ := f.FieldByName(fl.CountField)
			n, words = int(c), words+cf.BlockWords(1)
		}
		words += fl.BlockWords(n)
		for e := 0; e < n && fl.Kind == pbio.Nested; e++ {
			w, t, ok := need(d, fl.Nested)
			if words, text = words+w, text+t; !ok {
				return words, text, false
			}
		}
		for e := 0; e < n && fl.Kind == pbio.String; e++ {
			s, err := d.Opaque()
			if err != nil {
				return words, text, false
			}
			text += len(s)
		}
		if fl.Kind != pbio.Nested && fl.Kind != pbio.String {
			if _, err := d.FixedOpaque(n * width(fl)); err != nil {
				return words, text, false
			}
		}
	}
	return words, text, true
}

// width is the bytes one element of a numeric or bool field takes in XDR:
// 8 for a hyper or a double, else 4. The encoder, need and the readers all
// go by it.
func width(fl *pbio.Field) int {
	if fl.Kind == pbio.Float && fl.ElemSize != 4 || fl.Kind != pbio.Bool && fl.ElemSize == 8 {
		return 8
	}
	return 4
}

func decodeInto(d *Decoder, b *pbio.RecordBuilder, f *pbio.Format) (pbio.Record, error) {
	rec := b.Record(f)
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.IsCount() {
			continue
		}
		switch {
		case fl.Dynamic:
			n, err := d.Uint32()
			if err != nil {
				return nil, fmt.Errorf("xdr: field %q: %w", fl.Name, err)
			}
			// Every element costs at least 4 bytes, nested records included:
			// pbio rejects a format with no fields, and a skipped count field
			// always travels inside its dynamic array's 4-byte length.
			if int(n)*4 > d.Remaining() {
				return nil, fmt.Errorf("xdr: field %q: %w: count %d", fl.Name, ErrBadLength, n)
			}
			vals, err := decodeArray(d, b, fl, int(n))
			if err != nil {
				return nil, fmt.Errorf("xdr: field %q: %w", fl.Name, err)
			}
			rec[fl.Name] = vals
			rec[fl.CountField] = b.Int(int64(n))
		case fl.Count > 1:
			vals, err := decodeArray(d, b, fl, fl.Count)
			if err != nil {
				return nil, fmt.Errorf("xdr: field %q: %w", fl.Name, err)
			}
			rec[fl.Name] = vals
		default:
			v, err := decodeScalar(d, b, fl)
			if err != nil {
				return nil, fmt.Errorf("xdr: field %q: %w", fl.Name, err)
			}
			rec[fl.Name] = v
		}
	}
	return rec, nil
}

func decodeScalar(d *Decoder, b *pbio.RecordBuilder, fl *pbio.Field) (interface{}, error) {
	switch w := width(fl); fl.Kind {
	case pbio.Int, pbio.Char:
		v, err := readInt(d, w)
		return b.Int(v), err
	case pbio.Uint:
		v, err := readUint(d, w)
		return b.Uint(v), err
	case pbio.Float:
		v, err := readFloat(d, w)
		return b.Float(v), err
	case pbio.Bool:
		return d.Bool()
	case pbio.String:
		s, err := d.Opaque()
		return b.Str(b.Text(s)), err
	case pbio.Nested:
		return decodeInto(d, b, fl.Nested)
	default:
		return nil, fmt.Errorf("unsupported kind %v", fl.Kind)
	}
}

// decodeArray reads n elements straight into a typed slice of the field's
// kind, from the block for a numeric or bool array.
func decodeArray(d *Decoder, b *pbio.RecordBuilder, fl *pbio.Field, n int) (interface{}, error) {
	switch w := width(fl); fl.Kind {
	case pbio.Int, pbio.Char:
		s, x := pbio.Array[int64](b, n)
		return x, fill(s, func() (int64, error) { return readInt(d, w) })
	case pbio.Uint:
		s, x := pbio.Array[uint64](b, n)
		return x, fill(s, func() (uint64, error) { return readUint(d, w) })
	case pbio.Float:
		s, x := pbio.Array[float64](b, n)
		return x, fill(s, func() (float64, error) { return readFloat(d, w) })
	case pbio.Bool:
		s, x := pbio.Array[bool](b, n)
		return x, fill(s, d.Bool)
	case pbio.String:
		s := make([]string, n)
		return s, fill(s, func() (string, error) {
			raw, err := d.Opaque()
			return b.Text(raw), err
		})
	case pbio.Nested:
		s := make([]pbio.Record, n)
		return s, fill(s, func() (pbio.Record, error) { return decodeInto(d, b, fl.Nested) })
	}
	return nil, fmt.Errorf("unsupported kind %v", fl.Kind)
}

// fill reads the elements of s in order, stopping at the first error.
func fill[T any](s []T, read func() (T, error)) (err error) {
	for i := range s {
		if s[i], err = read(); err != nil {
			return err
		}
	}
	return nil
}

// readInt, readUint and readFloat read one number of a field whose width
// is w.
func readInt(d *Decoder, w int) (int64, error) {
	if w == 8 {
		return d.Int64()
	}
	v, err := d.Int32()
	return int64(v), err
}

func readUint(d *Decoder, w int) (uint64, error) {
	if w == 8 {
		return d.Uint64()
	}
	v, err := d.Uint32()
	return uint64(v), err
}

func readFloat(d *Decoder, w int) (float64, error) {
	if w == 4 {
		v, err := d.Float32()
		return float64(v), err
	}
	return d.Float64()
}

// --- coercion (mirrors the NDR encoder's tolerance) ------------------------

func toInt(val interface{}) (int64, error) {
	switch v := val.(type) {
	case nil:
		return 0, nil
	case int:
		return int64(v), nil
	case int32:
		return int64(v), nil
	case int64:
		return v, nil
	case uint64:
		return int64(v), nil
	case uint32:
		return int64(v), nil
	default:
		return 0, fmt.Errorf("got %T, want integer", val)
	}
}

func toUint(val interface{}) (uint64, error) {
	switch v := val.(type) {
	case nil:
		return 0, nil
	case uint:
		return uint64(v), nil
	case uint32:
		return uint64(v), nil
	case uint64:
		return v, nil
	case int:
		return uint64(v), nil
	case int64:
		return uint64(v), nil
	default:
		return 0, fmt.Errorf("got %T, want unsigned", val)
	}
}

func toFloat(val interface{}) (float64, error) {
	switch v := val.(type) {
	case nil:
		return 0, nil
	case float32:
		return float64(v), nil
	case float64:
		return v, nil
	case int:
		return float64(v), nil
	default:
		return 0, fmt.Errorf("got %T, want float", val)
	}
}

func elements(val interface{}, max int) ([]interface{}, error) {
	if val == nil {
		if max > 0 {
			return make([]interface{}, max), nil
		}
		return nil, nil
	}
	var out []interface{}
	switch v := val.(type) {
	case []interface{}:
		out = v
	case []int64:
		out = make([]interface{}, len(v))
		for i := range v {
			out[i] = v[i]
		}
	case []uint64:
		out = make([]interface{}, len(v))
		for i := range v {
			out[i] = v[i]
		}
	case []float64:
		out = make([]interface{}, len(v))
		for i := range v {
			out[i] = v[i]
		}
	case []string:
		out = make([]interface{}, len(v))
		for i := range v {
			out[i] = v[i]
		}
	case []bool:
		out = make([]interface{}, len(v))
		for i := range v {
			out[i] = v[i]
		}
	case []pbio.Record:
		out = make([]interface{}, len(v))
		for i := range v {
			out[i] = v[i]
		}
	default:
		return nil, fmt.Errorf("got %T, want slice", val)
	}
	if max >= 0 {
		if len(out) > max {
			return nil, fmt.Errorf("%d values for fixed array of %d", len(out), max)
		}
		if len(out) < max {
			padded := make([]interface{}, max)
			copy(padded, out)
			out = padded
		}
	}
	return out, nil
}
