// Package xmlschema parses the subset of the W3C XML Schema language that
// the paper uses to describe message formats: named complexType definitions
// composed of element declarations with primitive xsd types, references to
// previously defined complexTypes, and static / dynamic arrays expressed
// through minOccurs/maxOccurs.
//
// Both the 1999 draft type names that appear in the paper (for example
// xsd:unsigned-long) and the final 2001 recommendation names
// (xsd:unsignedLong) are accepted.
//
// ParseString is the one path from text to Schema: a single pass over
// xmltext's tokens that keeps the six attributes it reads and builds no tree.
package xmlschema

import (
	"errors"
	"fmt"
)

// Namespace URIs recognized as "the XML Schema namespace". The paper's
// documents use the 1999 draft URI.
var schemaNamespaces = map[string]bool{
	"http://www.w3.org/1999/XMLSchema":    true,
	"http://www.w3.org/2000/10/XMLSchema": true,
	"http://www.w3.org/2001/XMLSchema":    true,
}

// IsSchemaNamespace reports whether uri is one of the XML Schema namespace
// URIs this package recognizes.
func IsSchemaNamespace(uri string) bool { return schemaNamespaces[uri] }

// Primitive identifies an XML Schema primitive datatype (or a datatype this
// package maps onto one).
type Primitive int

// Supported primitive datatypes.
const (
	String Primitive = iota + 1
	Byte
	UnsignedByte
	Short
	UnsignedShort
	Int
	Integer // xsd:integer, mapped to C int exactly as the paper does
	UnsignedInt
	Long
	UnsignedLong
	Float
	Double
	Boolean
	Char // single character; not an xsd builtin but needed for C char fields
)

var primitiveNames = map[Primitive]string{
	String:        "string",
	Byte:          "byte",
	UnsignedByte:  "unsignedByte",
	Short:         "short",
	UnsignedShort: "unsignedShort",
	Int:           "int",
	Integer:       "integer",
	UnsignedInt:   "unsignedInt",
	Long:          "long",
	UnsignedLong:  "unsignedLong",
	Float:         "float",
	Double:        "double",
	Boolean:       "boolean",
	Char:          "char",
}

// String returns the canonical (2001 recommendation) name of the primitive.
func (p Primitive) String() string {
	if s, ok := primitiveNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Primitive(%d)", int(p))
}

// primitiveByName maps every accepted spelling — 2001 names, 1999 hyphenated
// draft names, and a few aliases — to the primitive.
var primitiveByName = map[string]Primitive{
	"string":         String,
	"byte":           Byte,
	"unsignedByte":   UnsignedByte,
	"unsigned-byte":  UnsignedByte,
	"short":          Short,
	"unsignedShort":  UnsignedShort,
	"unsigned-short": UnsignedShort,
	"int":            Int,
	"integer":        Integer,
	"unsignedInt":    UnsignedInt,
	"unsigned-int":   UnsignedInt,
	"long":           Long,
	"unsignedLong":   UnsignedLong,
	"unsigned-long":  UnsignedLong,
	"float":          Float,
	"double":         Double,
	"decimal":        Double, // closest binary type
	"boolean":        Boolean,
	"char":           Char,
}

// PrimitiveByName resolves an xsd type local name to a primitive.
func PrimitiveByName(local string) (Primitive, bool) {
	p, ok := primitiveByName[local]
	return p, ok
}

// ArrayKind distinguishes the three array forms of §4.1.1 of the paper.
type ArrayKind int

const (
	// NoArray means the element is a single value.
	NoArray ArrayKind = iota
	// StaticArray is a fixed-size array: maxOccurs="5".
	StaticArray
	// DynamicArray is an unbounded, dynamically allocated array:
	// maxOccurs="*" (the paper's wildcard; "unbounded" is also accepted).
	// Its length travels in a synthesized <name>_count field.
	DynamicArray
	// CountedArray is sized at run time by another integer element named in
	// maxOccurs: maxOccurs="eta_count".
	CountedArray
)

// String names the array kind for diagnostics.
func (k ArrayKind) String() string {
	switch k {
	case NoArray:
		return "scalar"
	case StaticArray:
		return "static array"
	case DynamicArray:
		return "dynamic array"
	case CountedArray:
		return "counted array"
	default:
		return fmt.Sprintf("ArrayKind(%d)", int(k))
	}
}

// TypeRef is a reference to either a primitive xsd type or a previously
// defined complexType (by name).
type TypeRef struct {
	// Primitive is set for xsd primitive types (zero otherwise). Elements
	// declared with a named simpleType resolve here to its base primitive.
	Primitive Primitive
	// Named is the referenced complexType name for user-defined types.
	Named string
	// Simple carries the declaring simpleType's name when the reference
	// went through one (informational; the wire sees the base primitive).
	Simple string
}

// IsPrimitive reports whether the reference is to an xsd primitive.
func (r TypeRef) IsPrimitive() bool { return r.Primitive != 0 }

// String renders the reference as it would appear in a type attribute.
func (r TypeRef) String() string {
	if r.IsPrimitive() {
		return "xsd:" + r.Primitive.String()
	}
	return r.Named
}

// Element is one element declaration inside a complexType: one field of the
// message format.
type Element struct {
	// Name is the field name.
	Name string
	// Type is the element's declared type.
	Type TypeRef
	// Array describes the occurrence constraint.
	Array ArrayKind
	// Size is the static element count for StaticArray.
	Size int
	// CountField names the element holding the run-time length for
	// CountedArray, or the synthesized count field for DynamicArray.
	CountField string
	// MinOccurs is the declared minimum (informational; PBIO always
	// transmits the full static size or the counted length).
	MinOccurs int
}

// ComplexType is a named message format definition.
type ComplexType struct {
	// Name is the format name from the complexType name attribute.
	Name string
	// Elements are the fields in declaration order.
	Elements []Element
	// Doc is the xsd:documentation text, if any.
	Doc string
}

// SimpleType is a named datatype derived from a primitive by restriction or
// extension — the paper's footnote 1: "XML Schema does allow the definition
// of new simple types by extension or restriction of primitive types, and
// these types can be used in the definition of message formats." For wire
// purposes a simple type is its base primitive; facet constraints
// (enumerations, ranges, lengths) are carried for validation tooling.
type SimpleType struct {
	// Name is the simpleType name.
	Name string
	// Base is the underlying primitive.
	Base Primitive
	// Doc is the xsd:documentation text, if any.
	Doc string
	// Enumeration lists permitted values when the restriction enumerates.
	Enumeration []string
	// MinInclusive/MaxInclusive are numeric range facets (raw text; empty
	// when absent).
	MinInclusive, MaxInclusive string
	// MaxLength is the string length facet (-1 when absent).
	MaxLength int
}

// Schema is a parsed schema document: an ordered list of complexType
// definitions (order matters — a type may only reference types defined
// before it, mirroring the Catalog discipline of the paper's tool).
type Schema struct {
	// TargetNamespace is the schema's target namespace URI.
	TargetNamespace string
	// Doc is the top-level xsd:documentation text, if any.
	Doc string
	// Types holds the complexTypes in document order.
	Types []*ComplexType
	// SimpleTypes holds named simple types in document order.
	SimpleTypes []*SimpleType

	byName       map[string]*ComplexType
	simpleByName map[string]*SimpleType
}

// SimpleTypeByName returns the named simple type.
func (s *Schema) SimpleTypeByName(name string) (*SimpleType, bool) {
	t, ok := s.simpleByName[name]
	return t, ok
}

// TypeByName returns the complexType with the given name.
func (s *Schema) TypeByName(name string) (*ComplexType, bool) {
	t, ok := s.byName[name]
	return t, ok
}

// Errors reported during schema validation. Parse wraps them with position
// and name context; callers match with errors.Is.
var (
	ErrNotSchema        = errors.New("xmlschema: document root is not an XML Schema")
	ErrDuplicateType    = errors.New("xmlschema: duplicate complexType name")
	ErrDuplicateElement = errors.New("xmlschema: duplicate element name")
	ErrUnknownType      = errors.New("xmlschema: unknown type reference")
	ErrBadOccurs        = errors.New("xmlschema: invalid occurrence constraint")
	ErrBadCountField    = errors.New("xmlschema: invalid count field for counted array")
	ErrNoTypes          = errors.New("xmlschema: schema defines no complexTypes")
)
