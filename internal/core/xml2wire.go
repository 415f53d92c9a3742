// Package core implements xml2wire: the paper's tool for turning XML
// Schema message descriptions into registered formats of the underlying
// binary communication mechanism (PBIO).
//
// The tool deliberately separates the three steps of metadata handling the
// paper identifies:
//
//   - discovery: obtaining the schema document (a file, an in-memory string,
//     or a remote repository via internal/discovery) — this package accepts
//     parsed schema documents and leaves retrieval to the caller, so the
//     discovery method can change without touching binding;
//   - binding: mapping each complexType to a PBIO format laid out for the
//     local architecture (sizeof and offset computation via
//     internal/machine, the Catalog of previously registered types for
//     composition) and registering it;
//   - marshaling: performed entirely by PBIO — xml2wire "does not perform
//     marshaling; the PBIO objects that represent the newly-registered
//     format are made available to the programmer for later use".
package core

import (
	"errors"
	"fmt"
	"io"
	"os"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlschema"
)

// FormatSet is the result of registering one schema document: the PBIO
// format descriptors for every complexType, in document order.
type FormatSet struct {
	// Schema is the parsed source schema.
	Schema *xmlschema.Schema
	// Formats holds the registered formats in document order.
	Formats []*pbio.Format

	byName map[string]*pbio.Format
}

// Lookup returns the registered format for a complexType name.
func (s *FormatSet) Lookup(name string) (*pbio.Format, bool) {
	f, ok := s.byName[name]
	return f, ok
}

// Root returns the last format in the document — by the paper's Catalog
// discipline (types reference only earlier types), the most composed one.
func (s *FormatSet) Root() *pbio.Format {
	return s.Formats[len(s.Formats)-1]
}

// ErrUnsupportedSchema reports schema constructs that cannot be mapped onto
// the BCM (currently: dynamic arrays of strings).
var ErrUnsupportedSchema = errors.New("xml2wire: schema construct not supported by the BCM")

// RegisterSchema binds every complexType of an already-parsed schema to the
// context's architecture and registers it with PBIO. This is the core of
// the xml2wire process (the paper's Figure 2).
func RegisterSchema(ctx *pbio.Context, s *xmlschema.Schema) (*FormatSet, error) {
	set := &FormatSet{
		Schema: s,
		byName: make(map[string]*pbio.Format, len(s.Types)),
	}
	for _, ct := range s.Types {
		specs, err := SpecsForType(ct)
		if err != nil {
			return nil, err
		}
		f, err := ctx.RegisterSpec(ct.Name, specs)
		if err != nil {
			return nil, fmt.Errorf("xml2wire: register %q: %w", ct.Name, err)
		}
		set.Formats = append(set.Formats, f)
		set.byName[ct.Name] = f
	}
	return set, nil
}

// RegisterDocument parses schema text and registers its types.
func RegisterDocument(ctx *pbio.Context, doc []byte) (*FormatSet, error) {
	s, err := xmlschema.ParseString(string(doc))
	if err != nil {
		return nil, err
	}
	return RegisterSchema(ctx, s)
}

// RegisterReader reads a schema document from r and registers its types.
func RegisterReader(ctx *pbio.Context, r io.Reader) (*FormatSet, error) {
	doc, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xml2wire: read schema: %w", err)
	}
	return RegisterDocument(ctx, doc)
}

// RegisterFile loads a schema document from the local file system — the
// discovery mode the paper's prototype used.
func RegisterFile(ctx *pbio.Context, path string) (*FormatSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("xml2wire: %w", err)
	}
	defer f.Close()
	return RegisterReader(ctx, f)
}

// SpecsForType maps one complexType to PBIO field specs, synthesizing the
// implicit count field for maxOccurs="*" arrays (the eta / eta_count
// pattern of Appendix A: the count is declared right after the array, as the
// C structure lays it out).
func SpecsForType(ct *xmlschema.ComplexType) ([]pbio.FieldSpec, error) {
	declared := make(map[string]bool, len(ct.Elements))
	for _, e := range ct.Elements {
		declared[e.Name] = true
	}
	specs := make([]pbio.FieldSpec, 0, len(ct.Elements)+2)
	for _, e := range ct.Elements {
		spec, err := specForElement(ct, e)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
		if e.Array == xmlschema.DynamicArray && !declared[e.CountField] {
			specs = append(specs, pbio.FieldSpec{
				Name: e.CountField, Kind: pbio.Int, CType: machine.CInt,
			})
			declared[e.CountField] = true
		}
	}
	return specs, nil
}

func specForElement(ct *xmlschema.ComplexType, e xmlschema.Element) (pbio.FieldSpec, error) {
	spec := pbio.FieldSpec{Name: e.Name}
	switch e.Array {
	case xmlschema.StaticArray:
		spec.Count = e.Size
	case xmlschema.DynamicArray, xmlschema.CountedArray:
		spec.Dynamic = true
		spec.CountField = e.CountField
	}
	if e.Type.IsPrimitive() {
		kind, ctype, err := MapPrimitive(e.Type.Primitive)
		if err != nil {
			return spec, fmt.Errorf("type %q element %q: %w", ct.Name, e.Name, err)
		}
		if kind == pbio.String && spec.Dynamic {
			return spec, fmt.Errorf("type %q element %q: %w: dynamic arrays of strings",
				ct.Name, e.Name, ErrUnsupportedSchema)
		}
		spec.Kind = kind
		spec.CType = ctype
		return spec, nil
	}
	spec.Kind = pbio.Nested
	spec.NestedName = e.Type.Named
	return spec, nil
}

// MapPrimitive performs the paper's "straightforward mapping ... between
// the type attribute (which denotes one of the XML Schema data types) and a
// corresponding PBIO type", additionally selecting the C type whose sizeof
// determines the field size on the registering architecture.
func MapPrimitive(p xmlschema.Primitive) (pbio.Kind, machine.CType, error) {
	switch p {
	case xmlschema.String:
		return pbio.String, machine.CPointer, nil
	case xmlschema.Byte:
		return pbio.Int, machine.CChar, nil
	case xmlschema.UnsignedByte:
		return pbio.Uint, machine.CUChar, nil
	case xmlschema.Short:
		return pbio.Int, machine.CShort, nil
	case xmlschema.UnsignedShort:
		return pbio.Uint, machine.CUShort, nil
	case xmlschema.Int, xmlschema.Integer:
		return pbio.Int, machine.CInt, nil
	case xmlschema.UnsignedInt:
		return pbio.Uint, machine.CUInt, nil
	case xmlschema.Long:
		return pbio.Int, machine.CLong, nil
	case xmlschema.UnsignedLong:
		return pbio.Uint, machine.CULong, nil
	case xmlschema.Float:
		return pbio.Float, machine.CFloat, nil
	case xmlschema.Double:
		return pbio.Float, machine.CDouble, nil
	case xmlschema.Boolean:
		return pbio.Bool, machine.CChar, nil
	case xmlschema.Char:
		return pbio.Char, machine.CChar, nil
	default:
		return 0, 0, fmt.Errorf("%w: primitive %v", ErrUnsupportedSchema, p)
	}
}
