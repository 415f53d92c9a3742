// Package xmlwire implements the approach the paper argues against: using
// XML text itself as the wire format, the way XML-RPC and similar systems
// do. Records are serialized as ASCII element trees and parsed back on
// receipt.
//
// The package exists as the measured baseline for two of the paper's
// quantitative claims: that binary NDR transmission outperforms text-based
// XML transmission by roughly an order of magnitude, and that ASCII-encoded
// records expand to 6–8x the size of the binary original. It is implemented
// carefully so that the comparison is against a competent text
// implementation, not a strawman: the encoder formats numbers in place with
// strconv, and the decoder reads xmltext's tokens in one pass, building no
// tree and boxing no array element.
package xmlwire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
		if fl.IsCount() {
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
// the format as its schema, in one pass over the tokens: child elements are
// matched to fields by name as their start tags arrive, scalars are parsed
// from the token text and array elements appended to typed slices. The count
// fields of dynamic arrays are reconstructed from the number of repeated
// elements. The record is made by a pbio.RecordBuilder, as Format.Decode's
// is, from one block whose text is a copy of data and whose words are
// bounded by the format (blockWords) or, where it has an array of records,
// by data's count of '<': every word a value takes has a tag of its own (a
// string's two words its start and end tags), except the count of an empty
// dynamic array, which goes to the heap once the words run out. Decoded
// strings may share that copy of data, never data itself; arrays grow by
// append, outside the block.
//
// A document that is not well-formed is reported as that, whatever else is
// wrong with it. Otherwise the first of these is: a root that is not the
// format's; an element the format does not name, the first in document order;
// then, field by field in format order, a wrong number of elements or the
// field's first value that does not parse. A nested record is held to the
// same order at its field's turn.
func DecodeRecord(f *pbio.Format, data []byte) (pbio.Record, error) {
	var b pbio.RecordBuilder
	words, ok := blockWords(f)
	if tags := bytes.Count(data, []byte("<")); !ok || tags < words {
		words = tags
	}
	b.Start(words, len(data))
	d := decoder{xmltext.NewTokenizer(b.Text(data)), &b}
	var rec pbio.Record
	var bad error
	for {
		tok, err := d.tok.Next()
		switch {
		case err == io.EOF:
			return rec, bad
		case err != nil:
			return nil, err
		case tok.Kind == xmltext.StartTag:
			rec, bad = d.record(f, tok.Name.Local)
		}
	}
}

// blockWords is the most block words a record of f takes here, where arrays
// stay outside the block: each numeric scalar and count field 1 and each
// string 2 (Field.BlockWords). An array of records has no bound (ok false).
func blockWords(f *pbio.Format) (words int, ok bool) {
	for i := range f.Fields {
		fl := &f.Fields[i]
		switch array := fl.Dynamic || fl.Count > 1; {
		case fl.Kind == pbio.Nested && array:
			return 0, false
		case fl.Kind == pbio.Nested:
			w, ok := blockWords(fl.Nested)
			if !ok {
				return 0, false
			}
			words += w
		case !array:
			words += fl.BlockWords(1)
		}
	}
	return words, true
}

// decoder reads one message. Each method consumes the element whose start
// tag was just read, through its end tag; at a syntax error it stops early,
// and the tokenizer repeats the error to DecodeRecord.
type decoder struct {
	tok *xmltext.Tokenizer
	b   *pbio.RecordBuilder
}

// children calls visit with the name of each child element, which visit
// consumes.
func (d decoder) children(visit func(name string)) {
	for {
		tok, err := d.tok.Next()
		if err != nil || tok.Kind == xmltext.EndTag {
			return
		}
		if tok.Kind == xmltext.StartTag {
			visit(tok.Name.Local)
		}
	}
}

// text returns the character data at any depth inside the element, as DOM
// textContent does. A value written by EncodeRecord is one token, which is
// returned as it is; text split across tokens is joined in one builder, so a
// peer cannot make the join quadratic.
func (d decoder) text() string {
	var first string
	var joined strings.Builder // all of the text, once a second token arrives
	for depth := 1; depth > 0; {
		tok, err := d.tok.Next()
		switch {
		case err != nil:
			depth = 0
		case tok.Kind == xmltext.StartTag:
			depth++
		case tok.Kind == xmltext.EndTag:
			depth--
		case tok.Kind != xmltext.CharData:
		case first == "" && joined.Len() == 0:
			first = tok.Data
		default:
			if joined.Len() == 0 {
				joined.WriteString(first)
			}
			joined.WriteString(tok.Data)
		}
	}
	if joined.Len() > 0 {
		return joined.String()
	}
	return first
}

// record reads the element, named name, as a record of format f.
func (d decoder) record(f *pbio.Format, name string) (pbio.Record, error) {
	if name != f.Name {
		d.text()
		return nil, fmt.Errorf("%w: <%s>, want <%s>", ErrWrongRoot, name, f.Name)
	}
	fields := make([]elems, len(f.Fields))
	var unknown error
	i := 0
	d.children(func(name string) {
		fl, ok := f.FieldByName(name)
		if !ok {
			if unknown == nil {
				unknown = fmt.Errorf("%w: <%s> not in format %q", ErrBadElement, name, f.Name)
			}
			d.text()
			return
		}
		// Elements arrive in format order, so fl's index is found by looking
		// on from the last element's.
		for &f.Fields[i] != fl {
			i = (i + 1) % len(f.Fields)
		}
		fields[i].read(d, fl)
	})
	if unknown != nil {
		return nil, unknown
	}
	rec := d.b.Record(f)
	for i := range f.Fields {
		fl, el := &f.Fields[i], &fields[i]
		if fl.IsCount() {
			continue
		}
		if want := max(fl.Count, 1); !fl.Dynamic && el.n != want {
			return nil, fmt.Errorf("%w: field %q has %d elements, want %d", ErrBadCount, fl.Name, el.n, want)
		}
		switch {
		case el.bad != nil:
			return nil, el.bad
		case fl.Dynamic:
			rec[fl.CountField] = d.b.Int(int64(el.n))
			fallthrough
		case fl.Count > 1:
			rec[fl.Name] = el.array(fl.Kind)
		default:
			rec[fl.Name] = el.val
		}
	}
	return rec, nil
}

// nested reads a nested field's element, whose one child element is the
// record.
func (d decoder) nested(fl *pbio.Field) (pbio.Record, error) {
	var rec pbio.Record
	var bad error
	n := 0
	d.children(func(name string) {
		if n++; n == 1 {
			rec, bad = d.record(fl.Nested, name)
		} else {
			d.text()
		}
	})
	if n != 1 {
		return nil, fmt.Errorf("%w: nested field %q has %d children", ErrBadElement, fl.Name, n)
	}
	return rec, bad
}

// elems gathers the elements of one field as they arrive: a scalar field's
// value boxed by the builder, an array field's in the typed slice of its
// kind.
type elems struct {
	n   int   // elements read
	bad error // the first whose content did not decode
	val interface{}

	ints   []int64
	uints  []uint64
	floats []float64
	bools  []bool
	strs   []string
	recs   []pbio.Record
}

func (e *elems) read(d decoder, fl *pbio.Field) {
	e.n++
	array := fl.Dynamic || fl.Count > 1
	if fl.Kind == pbio.Nested {
		rec, err := d.nested(fl)
		put(e, &e.recs, array, rec, boxed)
		e.keep(err)
		return
	}
	text := d.text()
	s := strings.TrimSpace(text)
	var err error
	switch fl.Kind {
	case pbio.Int, pbio.Char:
		var v int64
		v, err = strconv.ParseInt(s, 10, 64)
		put(e, &e.ints, array, v, d.b.Int)
	case pbio.Uint:
		var v uint64
		v, err = strconv.ParseUint(s, 10, 64)
		put(e, &e.uints, array, v, d.b.Uint)
	case pbio.Float:
		var v float64
		v, err = strconv.ParseFloat(s, 64)
		put(e, &e.floats, array, v, d.b.Float)
	case pbio.Bool:
		var v bool
		v, err = strconv.ParseBool(s)
		put(e, &e.bools, array, v, boxed)
	case pbio.String:
		put(e, &e.strs, array, text, d.b.Str)
	default:
		e.keep(fmt.Errorf("%w: kind %v", ErrBadValue, fl.Kind))
	}
	if err != nil {
		e.keep(fmt.Errorf("%w: field %q: %q", ErrBadValue, fl.Name, text))
	}
}

// put appends v to an array field's values, or keeps a scalar field's v
// boxed by box.
func put[T any](e *elems, vals *[]T, array bool, v T, box func(T) interface{}) {
	if array {
		*vals = append(*vals, v)
	} else {
		e.val = box(v)
	}
}

func boxed[T any](v T) interface{} { return v }

func (e *elems) keep(err error) {
	if e.bad == nil {
		e.bad = err
	}
}

// array returns the field's values as a typed slice, empty rather than nil
// for none and with cap == len, as Decode gives them.
func (e *elems) array(k pbio.Kind) interface{} {
	switch k {
	case pbio.Int, pbio.Char:
		return clip(e.ints)
	case pbio.Uint:
		return clip(e.uints)
	case pbio.Float:
		return clip(e.floats)
	case pbio.Bool:
		return clip(e.bools)
	case pbio.String:
		return clip(e.strs)
	}
	return clip(e.recs)
}

func clip[T any](vals []T) []T {
	if vals == nil {
		return []T{}
	}
	return vals[:len(vals):len(vals)]
}
