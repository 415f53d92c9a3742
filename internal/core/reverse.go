package core

import (
	"fmt"

	"openmeta/internal/pbio"
	"openmeta/internal/xmlschema"
)

// SchemaForFormats renders registered formats back into an XML Schema
// document model — the inverse of RegisterSchema. It enables the dynamic
// metadata generation of the paper's §4.4: a server can register formats
// programmatically (or adopt them from the wire) and publish their XML
// descriptions on a metadata repository, and it closes the round trip the
// schema-generation tests rely on.
//
// Formats must be passed dependency-first (nested before nesting), the
// same Catalog order registration requires; nested formats referenced but
// not listed are added automatically.
func SchemaForFormats(targetNamespace string, formats ...*pbio.Format) (*xmlschema.Schema, error) {
	s := &xmlschema.Schema{TargetNamespace: targetNamespace}
	seen := make(map[string]*pbio.Format)
	var add func(f *pbio.Format) error
	add = func(f *pbio.Format) error {
		if prev, ok := seen[f.Name]; ok {
			if prev.ID != f.ID {
				return fmt.Errorf("xml2wire: two formats named %q with different definitions", f.Name)
			}
			return nil
		}
		for i := range f.Fields {
			if n := f.Fields[i].Nested; n != nil {
				if err := add(n); err != nil {
					return err
				}
			}
		}
		ct, err := complexTypeForFormat(f)
		if err != nil {
			return err
		}
		seen[f.Name] = f
		s.Types = append(s.Types, ct)
		return nil
	}
	for _, f := range formats {
		if f == nil {
			return nil, fmt.Errorf("xml2wire: nil format")
		}
		if err := add(f); err != nil {
			return nil, err
		}
	}
	if len(s.Types) == 0 {
		return nil, fmt.Errorf("xml2wire: no formats given")
	}
	// Re-parse through the validator to fill internal indexes and prove the
	// generated schema is self-consistent.
	return xmlschema.ParseString(xmlschema.MarshalString(s))
}

func complexTypeForFormat(f *pbio.Format) (*xmlschema.ComplexType, error) {
	ct := &xmlschema.ComplexType{Name: f.Name}
	// Count fields that only exist to size a dynamic array are implicit in
	// the schema (maxOccurs="*" regenerates them on registration) — but
	// only when they follow the synthesized naming convention; explicitly
	// named count fields (maxOccurs="n") stay declared.
	implicitCounts := make(map[string]bool)
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.Dynamic && fl.CountField == fl.Name+"_count" {
			implicitCounts[fl.CountField] = true
		}
	}
	for i := range f.Fields {
		fl := &f.Fields[i]
		if implicitCounts[fl.Name] {
			continue
		}
		e, err := elementForField(f, fl)
		if err != nil {
			return nil, err
		}
		ct.Elements = append(ct.Elements, e)
	}
	return ct, nil
}

func elementForField(f *pbio.Format, fl *pbio.Field) (xmlschema.Element, error) {
	e := xmlschema.Element{Name: fl.Name, MinOccurs: 1}
	switch {
	case fl.Dynamic && fl.CountField == fl.Name+"_count":
		e.Array = xmlschema.DynamicArray
		e.CountField = fl.CountField
		e.MinOccurs = 0
	case fl.Dynamic:
		e.Array = xmlschema.CountedArray
		e.CountField = fl.CountField
		e.MinOccurs = 0
	case fl.Count > 1:
		e.Array = xmlschema.StaticArray
		e.Size = fl.Count
	}
	if fl.Kind == pbio.Nested {
		e.Type = xmlschema.TypeRef{Named: fl.Nested.Name}
		return e, nil
	}
	p, err := primitiveForField(f, fl)
	if err != nil {
		return e, fmt.Errorf("format %q field %q: %w", f.Name, fl.Name, err)
	}
	e.Type = xmlschema.TypeRef{Primitive: p}
	return e, nil
}

// primitiveForField picks an xsd primitive whose C mapping on the format's
// own architecture reproduces the field's element size, so a schema
// generated from a format re-registers to the same layout on that
// architecture. XML Schema (as the paper uses it) names C types, and some
// sizes have no spelling on some profiles — e.g. an 8-byte integer on a
// 32-bit-long machine — which is reported as an error rather than silently
// changing the format.
func primitiveForField(f *pbio.Format, fl *pbio.Field) (xmlschema.Primitive, error) {
	switch fl.Kind {
	case pbio.String:
		return xmlschema.String, nil
	case pbio.Bool:
		return xmlschema.Boolean, nil
	case pbio.Char:
		return xmlschema.Char, nil
	}
	var candidates []xmlschema.Primitive
	switch fl.Kind {
	case pbio.Float:
		candidates = []xmlschema.Primitive{xmlschema.Float, xmlschema.Double}
	case pbio.Int:
		candidates = []xmlschema.Primitive{xmlschema.Byte, xmlschema.Short,
			xmlschema.Int, xmlschema.Long}
	case pbio.Uint:
		candidates = []xmlschema.Primitive{xmlschema.UnsignedByte, xmlschema.UnsignedShort,
			xmlschema.UnsignedInt, xmlschema.UnsignedLong}
	default:
		return 0, fmt.Errorf("%w: kind %s", ErrUnsupportedSchema, fl.Kind)
	}
	for _, p := range candidates {
		_, ctype, err := MapPrimitive(p)
		if err != nil {
			continue
		}
		if f.Arch.SizeOf(ctype) == fl.ElemSize {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w: no xsd primitive is a %d-byte %s on %s",
		ErrUnsupportedSchema, fl.ElemSize, fl.Kind, f.Arch.Name)
}
