// Package pbio is a reimplementation of the PBIO binary communication
// mechanism the paper builds on (Eisenhauer & Daley, "Fast heterogeneous
// binary data interchange", HCW 2000).
//
// PBIO transmits records in NDR — Natural Data Representation, the sender's
// own in-memory layout — together with compact metadata identifying the
// precise format of the transmitted bytes. Senders therefore marshal with a
// straight memory copy plus pointer-to-offset fixups; receivers convert only
// when their native representation actually differs, using conversion
// programs compiled once per (source format, destination) pair.
//
// The package provides:
//
//   - format registration from paper-style IOField lists or from layout
//     specifications (Context.Register / Context.RegisterSpec);
//   - a Catalog of formats addressable by name and by 8-byte format ID;
//   - NDR encoding of generic records and of bound Go structs;
//   - decoding with full byte-order / size / alignment conversion, including
//     PBIO's restricted format evolution (receivers tolerate added fields);
//     both directions are driven by one compiled field program per format
//     (program.go), the only walker over a format's fields: Format.Encode,
//     Binding.Encode, Format.Decode and Binding.Decode differ only in where
//     the Go values come from or go to, and arrays move through the bulk
//     kernels of internal/machine;
//   - portable binary format metadata for transmission (meta.go) and a
//     connection protocol that sends each format once per peer (wire.go).
package pbio

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies a field for marshaling purposes. As in PBIO, the kind
// selects a marshaling technique and is independent of the field's size.
type Kind int

// Field kinds.
const (
	Int    Kind = iota + 1 // signed two's-complement integer
	Uint                   // unsigned integer
	Float                  // IEEE 754 binary floating point
	Char                   // single character (1-byte integer)
	String                 // NUL-terminated string, stored by reference
	Bool                   // single byte, 0 or 1
	Nested                 // previously registered record format
)

var kindNames = map[Kind]string{
	Int:    "integer",
	Uint:   "unsigned integer",
	Float:  "float",
	Char:   "char",
	String: "string",
	Bool:   "boolean",
	Nested: "nested",
}

// String returns the PBIO spelling of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IOField is the paper's programmer-facing field descriptor (Figure 5): a
// name, a type string such as "integer", "unsigned integer[5]" or
// "integer[eta_count]" or the name of a previously registered format, the
// element size from sizeof, and the byte offset from IOOffset.
type IOField struct {
	Name   string
	Type   string
	Size   int
	Offset int
}

// Field is the resolved, internal form of a field after registration.
type Field struct {
	// Name is the field name.
	Name string
	// Kind selects the marshaling technique.
	Kind Kind
	// ElemSize is the size in bytes of one element in the record's memory
	// image. For String and dynamic arrays this is the pointer size.
	ElemSize int
	// Count is the static element count (1 for scalars).
	Count int
	// Dynamic marks a dynamically sized array; its length is carried by the
	// integer field named CountField.
	Dynamic bool
	// isCount marks a field that some dynamic array of the format names as
	// its CountField. Registration, UnmarshalMeta and DeriveSubset set it.
	isCount bool
	// CountField names the length-carrying field for dynamic arrays.
	CountField string
	// Nested is the element format for Kind == Nested.
	Nested *Format
	// Offset is the field's byte offset within the fixed region.
	Offset int
	// Slot is the number of bytes the field occupies in the fixed region:
	// ElemSize*Count for inline data, the pointer size for dynamic arrays
	// (which live in the variable region behind a pointer slot).
	Slot int
}

// IsCount reports whether the field carries the length of a dynamic array
// of its format. XDR and XML text leave such a field off the wire, since
// their arrays carry their own length.
func (f *Field) IsCount() bool { return f.isCount }

// Reference reports whether the field's fixed-region slot holds a reference
// into the variable region rather than the data itself.
func (f *Field) Reference() bool { return f.Kind == String || f.Dynamic }

// TypeString renders the field's type the way the paper writes it, e.g.
// "integer[eta_count]" or "ASDOffEvent".
func (f *Field) TypeString() string {
	base := f.Kind.String()
	if f.Kind == Nested {
		base = f.Nested.Name
	}
	switch {
	case f.Dynamic:
		return base + "[" + f.CountField + "]"
	case f.Count > 1:
		return base + "[" + strconv.Itoa(f.Count) + "]"
	default:
		return base
	}
}

// Registration errors.
var (
	ErrBadFieldType   = errors.New("pbio: malformed field type")
	ErrUnknownFormat  = errors.New("pbio: unknown format")
	ErrDuplicateField = errors.New("pbio: duplicate field name")
	ErrBadCountField  = errors.New("pbio: invalid count field")
	ErrBadFieldSize   = errors.New("pbio: field size does not match type")
	ErrFieldOverlap   = errors.New("pbio: field layout overlaps or is misaligned")
)

// parseTypeString splits a paper-style type string into its base type and
// array suffix. Returns kind (or nested format name), static count, dynamic
// flag and count-field name.
func parseTypeString(typ string) (base string, count int, dynamic bool, countField string, err error) {
	base = typ
	count = 1
	if i := strings.IndexByte(typ, '['); i >= 0 {
		if !strings.HasSuffix(typ, "]") {
			return "", 0, false, "", fmt.Errorf("%w: %q", ErrBadFieldType, typ)
		}
		base = typ[:i]
		inner := typ[i+1 : len(typ)-1]
		if inner == "" {
			return "", 0, false, "", fmt.Errorf("%w: %q", ErrBadFieldType, typ)
		}
		// Only what starts like a number is tried as one: Atoi allocates
		// its error for every count-field name.
		n, aerr := 0, error(strconv.ErrSyntax)
		if c := inner[0]; c == '+' || c == '-' || (c >= '0' && c <= '9') {
			n, aerr = strconv.Atoi(inner)
		}
		switch {
		case aerr != nil:
			dynamic = true
			countField = inner
		case n < 1:
			return "", 0, false, "", fmt.Errorf("%w: %q", ErrBadFieldType, typ)
		default:
			count = n
		}
	}
	if base == "" {
		return "", 0, false, "", fmt.Errorf("%w: %q", ErrBadFieldType, typ)
	}
	return base, count, dynamic, countField, nil
}

// kindByName maps PBIO base type spellings to kinds.
var kindByName = map[string]Kind{
	"integer":          Int,
	"unsigned integer": Uint,
	"unsigned":         Uint,
	"float":            Float,
	"double":           Float,
	"char":             Char,
	"string":           String,
	"boolean":          Bool,
}

// validSizes lists the element sizes each kind accepts.
func validSize(k Kind, size, pointerSize int) bool {
	switch k {
	case Int, Uint:
		return size == 1 || size == 2 || size == 4 || size == 8
	case Float:
		return size == 4 || size == 8
	case Char, Bool:
		return size == 1
	case String:
		return size == pointerSize
	default:
		return size > 0
	}
}
