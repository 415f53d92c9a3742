// Package xmlwire implements the approach the paper argues against: using
// XML text itself as the wire format, the way XML-RPC and similar systems
// do. Records are serialized as ASCII element trees and parsed back on
// receipt.
//
// The package exists as the measured baseline for two of the paper's
// quantitative claims: that binary NDR transmission outperforms text-based
// XML transmission by roughly an order of magnitude, and that ASCII-encoded
// records expand to 6–8x the size of the binary original. It is implemented
// carefully (strconv, no fmt on hot paths, single-pass parsing) so that the
// comparison is against a competent text implementation, not a strawman.
package xmlwire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"openmeta/internal/pbio"
	"openmeta/internal/xmltext"
)

// Decoding errors.
var (
	ErrWrongRoot  = errors.New("xmlwire: root element does not match format")
	ErrBadElement = errors.New("xmlwire: unexpected element")
	ErrBadValue   = errors.New("xmlwire: cannot parse value")
	ErrBadCount   = errors.New("xmlwire: element count does not match format")
)

// EncodeRecord serializes rec as an XML text message:
//
//	<ASDOffEvent><cntrID>ZTL</cntrID>...<off>10</off><off>20</off>...</ASDOffEvent>
//
// Arrays repeat their element; nested records nest their elements; dynamic
// array counts are implicit in the repetition (count fields are not
// serialized), matching how XML-RPC-era systems carried structured data.
func EncodeRecord(f *pbio.Format, rec pbio.Record) ([]byte, error) {
	return AppendRecord(make([]byte, 0, f.Size*8), f, rec)
}

// AppendRecord appends rec's XML text message to dst. It allocates only to
// grow dst: numbers are formatted in place and the elements of typed slices
// are never boxed.
func AppendRecord(dst []byte, f *pbio.Format, rec pbio.Record) ([]byte, error) {
	dst = openTag(dst, f.Name)
	for i := range f.Fields {
		fl := &f.Fields[i]
		if isCountField(f, fl) {
			continue
		}
		var err error
		if dst, err = appendField(dst, fl, rec[fl.Name]); err != nil {
			return nil, fmt.Errorf("xmlwire: field %q: %w", fl.Name, err)
		}
	}
	return closeTag(dst, f.Name), nil
}

func openTag(dst []byte, name string) []byte {
	return append(append(append(dst, '<'), name...), '>')
}

func closeTag(dst []byte, name string) []byte {
	return append(append(append(dst, "</"...), name...), '>')
}

func isCountField(f *pbio.Format, fl *pbio.Field) bool {
	for i := range f.Fields {
		if f.Fields[i].Dynamic && f.Fields[i].CountField == fl.Name {
			return true
		}
	}
	return false
}

func appendField(dst []byte, fl *pbio.Field, val interface{}) ([]byte, error) {
	if !fl.Dynamic && fl.Count <= 1 {
		return appendElem(dst, fl, val)
	}
	var n int
	var err error
	switch v := val.(type) {
	case nil:
	case []interface{}:
		n = len(v)
		dst, err = appendEach(dst, fl, v, appendValue)
	case []pbio.Record:
		n = len(v)
		dst, err = appendEach(dst, fl, v, appendNested)
	case []int64:
		n = len(v)
		dst, err = appendEach(dst, fl, v, appendInt)
	case []uint64:
		n = len(v)
		dst, err = appendEach(dst, fl, v, appendUint)
	case []float64:
		n = len(v)
		dst, err = appendEach(dst, fl, v, appendFloat)
	case []string:
		n = len(v)
		dst, err = appendEach(dst, fl, v, appendString)
	case []bool:
		n = len(v)
		dst, err = appendEach(dst, fl, v, appendBool)
	default:
		return dst, fmt.Errorf("%w: got %T, want slice", ErrBadValue, val)
	}
	if err != nil {
		return dst, err
	}
	if !fl.Dynamic && n > fl.Count {
		return dst, fmt.Errorf("%w: %d elements for static array of %d", ErrBadCount, n, fl.Count)
	}
	// Static arrays serialize missing trailing elements as zeros so the
	// receiver reconstructs the full extent.
	for ; !fl.Dynamic && n < fl.Count && err == nil; n++ {
		dst, err = appendElem(dst, fl, nil)
	}
	return dst, err
}

// appendEach writes one element of the field per value, rendered by text,
// which takes the value in its own type.
func appendEach[T any](dst []byte, fl *pbio.Field, vals []T, text func([]byte, *pbio.Field, T) ([]byte, error)) ([]byte, error) {
	for _, v := range vals {
		var err error
		if dst, err = text(openTag(dst, fl.Name), fl, v); err != nil {
			return dst, err
		}
		dst = closeTag(dst, fl.Name)
	}
	return dst, nil
}

func appendElem(dst []byte, fl *pbio.Field, val interface{}) ([]byte, error) {
	dst, err := appendValue(openTag(dst, fl.Name), fl, val)
	return closeTag(dst, fl.Name), err
}

func badValue(fl *pbio.Field, val interface{}) error {
	return fmt.Errorf("%w: %T for %s field", ErrBadValue, val, fl.Kind)
}

// appendValue renders one value of whatever Go type Encode accepts for the
// field; a missing value reads as the kind's zero.
func appendValue(dst []byte, fl *pbio.Field, val interface{}) ([]byte, error) {
	if fl.Kind == pbio.Nested {
		switch v := val.(type) {
		case pbio.Record:
			return appendNested(dst, fl, v)
		case map[string]interface{}:
			return appendNested(dst, fl, v)
		case nil:
			return appendNested(dst, fl, nil)
		}
		return dst, fmt.Errorf("%w: got %T, want Record", ErrBadValue, val)
	}
	signed := fl.Kind == pbio.Int || fl.Kind == pbio.Char
	switch v := val.(type) {
	case nil:
		switch fl.Kind {
		case pbio.Int, pbio.Char, pbio.Uint, pbio.Float:
			return append(dst, '0'), nil
		case pbio.Bool:
			return append(dst, "false"...), nil
		case pbio.String:
			return dst, nil
		}
	case int:
		if signed || fl.Kind == pbio.Uint {
			return appendInt(dst, fl, int64(v))
		}
	case int64:
		return appendInt(dst, fl, v)
	case uint64:
		return appendUint(dst, fl, v)
	case int32:
		if signed {
			return appendInt(dst, fl, int64(v))
		}
	case uint32:
		if fl.Kind == pbio.Uint {
			return appendUint(dst, fl, uint64(v))
		}
	case float64:
		return appendFloat(dst, fl, v)
	case float32:
		if fl.Kind == pbio.Float {
			return strconv.AppendFloat(dst, float64(v), 'g', -1, 32), nil
		}
	case bool:
		return appendBool(dst, fl, v)
	case string:
		return appendString(dst, fl, v)
	}
	return dst, badValue(fl, val)
}

func appendNested(dst []byte, fl *pbio.Field, sub pbio.Record) ([]byte, error) {
	if fl.Kind != pbio.Nested {
		return dst, badValue(fl, sub)
	}
	return AppendRecord(dst, fl.Nested, sub)
}

func appendInt(dst []byte, fl *pbio.Field, v int64) ([]byte, error) {
	switch fl.Kind {
	case pbio.Int, pbio.Char:
		return strconv.AppendInt(dst, v, 10), nil
	case pbio.Uint:
		return strconv.AppendUint(dst, uint64(v), 10), nil
	}
	return dst, badValue(fl, v)
}

func appendUint(dst []byte, fl *pbio.Field, v uint64) ([]byte, error) {
	switch fl.Kind {
	case pbio.Int, pbio.Char:
		return strconv.AppendInt(dst, int64(v), 10), nil
	case pbio.Uint:
		return strconv.AppendUint(dst, v, 10), nil
	}
	return dst, badValue(fl, v)
}

func appendFloat(dst []byte, fl *pbio.Field, v float64) ([]byte, error) {
	if fl.Kind != pbio.Float {
		return dst, badValue(fl, v)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64), nil
}

func appendBool(dst []byte, fl *pbio.Field, v bool) ([]byte, error) {
	if fl.Kind != pbio.Bool {
		return dst, badValue(fl, v)
	}
	return strconv.AppendBool(dst, v), nil
}

func appendString(dst []byte, fl *pbio.Field, v string) ([]byte, error) {
	if fl.Kind != pbio.String {
		return dst, badValue(fl, v)
	}
	return xmltext.AppendText(dst, v), nil
}

// DecodeRecord parses an XML text message back into a generic record using
// the format as its schema. The count fields of dynamic arrays are
// reconstructed from the number of repeated elements.
func DecodeRecord(f *pbio.Format, data []byte) (pbio.Record, error) {
	doc, err := xmltext.ParseString(string(data))
	if err != nil {
		return nil, err
	}
	return decodeElement(f, doc.Root)
}

func decodeElement(f *pbio.Format, root *xmltext.Element) (pbio.Record, error) {
	if root.Name.Local != f.Name {
		return nil, fmt.Errorf("%w: <%s>, want <%s>", ErrWrongRoot, root.Name.Local, f.Name)
	}
	// Group child elements by name, preserving order.
	groups := make(map[string][]*xmltext.Element, len(f.Fields))
	for _, el := range root.Elements() {
		groups[el.Name.Local] = append(groups[el.Name.Local], el)
	}
	for name := range groups {
		if _, ok := f.FieldByName(name); !ok {
			return nil, fmt.Errorf("%w: <%s> not in format %q", ErrBadElement, name, f.Name)
		}
	}
	rec := make(pbio.Record, len(f.Fields))
	for i := range f.Fields {
		fl := &f.Fields[i]
		if isCountField(f, fl) {
			continue
		}
		els := groups[fl.Name]
		switch {
		case fl.Dynamic:
			vals, err := decodeGroup(f, fl, els)
			if err != nil {
				return nil, err
			}
			rec[fl.Name] = vals
			rec[fl.CountField] = int64(len(els))
		case fl.Count > 1:
			if len(els) != fl.Count {
				return nil, fmt.Errorf("%w: field %q has %d elements, want %d",
					ErrBadCount, fl.Name, len(els), fl.Count)
			}
			vals, err := decodeGroup(f, fl, els)
			if err != nil {
				return nil, err
			}
			rec[fl.Name] = vals
		default:
			if len(els) != 1 {
				return nil, fmt.Errorf("%w: field %q has %d elements, want 1",
					ErrBadCount, fl.Name, len(els))
			}
			v, err := decodeOne(f, fl, els[0])
			if err != nil {
				return nil, err
			}
			rec[fl.Name] = v
		}
	}
	return rec, nil
}

func decodeGroup(f *pbio.Format, fl *pbio.Field, els []*xmltext.Element) (interface{}, error) {
	switch fl.Kind {
	case pbio.Int, pbio.Char:
		out := make([]int64, len(els))
		for i, el := range els {
			v, err := decodeOne(f, fl, el)
			if err != nil {
				return nil, err
			}
			out[i] = v.(int64)
		}
		return out, nil
	case pbio.Uint:
		out := make([]uint64, len(els))
		for i, el := range els {
			v, err := decodeOne(f, fl, el)
			if err != nil {
				return nil, err
			}
			out[i] = v.(uint64)
		}
		return out, nil
	case pbio.Float:
		out := make([]float64, len(els))
		for i, el := range els {
			v, err := decodeOne(f, fl, el)
			if err != nil {
				return nil, err
			}
			out[i] = v.(float64)
		}
		return out, nil
	case pbio.Bool:
		out := make([]bool, len(els))
		for i, el := range els {
			v, err := decodeOne(f, fl, el)
			if err != nil {
				return nil, err
			}
			out[i] = v.(bool)
		}
		return out, nil
	case pbio.String:
		out := make([]string, len(els))
		for i, el := range els {
			v, err := decodeOne(f, fl, el)
			if err != nil {
				return nil, err
			}
			out[i] = v.(string)
		}
		return out, nil
	case pbio.Nested:
		out := make([]pbio.Record, len(els))
		for i, el := range els {
			v, err := decodeOne(f, fl, el)
			if err != nil {
				return nil, err
			}
			out[i] = v.(pbio.Record)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: kind %v", ErrBadValue, fl.Kind)
	}
}

func decodeOne(f *pbio.Format, fl *pbio.Field, el *xmltext.Element) (interface{}, error) {
	if fl.Kind == pbio.Nested {
		inner := el.Elements()
		if len(inner) != 1 {
			return nil, fmt.Errorf("%w: nested field %q has %d children", ErrBadElement, fl.Name, len(inner))
		}
		return decodeElement(fl.Nested, inner[0])
	}
	text := el.TextContent()
	switch fl.Kind {
	case pbio.Int, pbio.Char:
		v, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: field %q: %q", ErrBadValue, fl.Name, text)
		}
		return v, nil
	case pbio.Uint:
		v, err := strconv.ParseUint(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: field %q: %q", ErrBadValue, fl.Name, text)
		}
		return v, nil
	case pbio.Float:
		v, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: field %q: %q", ErrBadValue, fl.Name, text)
		}
		return v, nil
	case pbio.Bool:
		v, err := strconv.ParseBool(strings.TrimSpace(text))
		if err != nil {
			return nil, fmt.Errorf("%w: field %q: %q", ErrBadValue, fl.Name, text)
		}
		return v, nil
	case pbio.String:
		return text, nil
	default:
		return nil, fmt.Errorf("%w: kind %v", ErrBadValue, fl.Kind)
	}
}
