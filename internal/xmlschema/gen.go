package xmlschema

import (
	"strconv"
	"strings"

	"openmeta/internal/xmltext"
)

// The namespace URI emitted by MarshalString. We generate 1999-draft
// documents to match the paper's appendix exactly; the parser accepts all
// variants.
const emitNamespace = "http://www.w3.org/1999/XMLSchema"

// MarshalString renders the schema as XML text, indented two spaces a level.
// It lets a metadata repository generate schema documents dynamically (the
// "server can also be extended to dynamically generate metadata" behaviour of
// §4.4). Simple types are not rendered: an element of one names its base
// primitive.
func MarshalString(s *Schema) string {
	b := []byte(`<?xml version="1.0"?>` + "\n<xsd:schema")
	b = appendAttr(b, "xmlns:xsd", emitNamespace)
	if s.TargetNamespace != "" {
		b = appendAttr(b, "targetNamespace", s.TargetNamespace)
	}
	if s.Doc == "" && len(s.Types) == 0 {
		return string(b) + " />\n"
	}
	b = append(b, '>')
	if s.Doc != "" {
		b = appendAnnotation(b, s.Doc, 1)
	}
	for _, ct := range s.Types {
		b = append(b, "\n  <xsd:complexType"...)
		b = appendAttr(b, "name", ct.Name)
		if ct.Doc == "" && len(ct.Elements) == 0 {
			b = append(b, " />"...)
			continue
		}
		b = append(b, '>')
		if ct.Doc != "" {
			b = appendAnnotation(b, ct.Doc, 2)
		}
		for _, e := range ct.Elements {
			b = appendElement(b, e)
		}
		b = append(b, "\n  </xsd:complexType>"...)
	}
	return string(b) + "\n</xsd:schema>\n"
}

func appendAttr(b []byte, name, value string) []byte {
	b = append(append(append(b, ' '), name...), `="`...)
	return append(append(b, xmltext.EscapeAttr(value)...), '"')
}

// appendAnnotation writes doc as the annotation of an element at the given
// depth. Documentation text stays on its tag's line; documentation that is
// only white space is dropped, as in element-only content.
func appendAnnotation(b []byte, doc string, depth int) []byte {
	pad := "\n" + strings.Repeat("  ", depth)
	b = append(b, pad+"<xsd:annotation>"+pad+"  <xsd:documentation>"...)
	if strings.TrimSpace(doc) == "" {
		b = append(b, pad+"  "...)
	} else {
		b = xmltext.AppendText(b, doc)
	}
	return append(b, "</xsd:documentation>"+pad+"</xsd:annotation>"...)
}

func appendElement(b []byte, e Element) []byte {
	typeAttr := e.Type.Named
	if e.Type.IsPrimitive() {
		typeAttr = "xsd:" + e.Type.Primitive.String()
	}
	b = append(b, "\n    <xsd:element"...)
	b = appendAttr(b, "name", e.Name)
	b = appendAttr(b, "type", typeAttr)
	occurs := func(minV, maxV string) []byte {
		return appendAttr(appendAttr(b, "minOccurs", minV), "maxOccurs", maxV)
	}
	switch e.Array {
	case StaticArray:
		n := strconv.Itoa(e.Size)
		b = occurs(n, n)
	case DynamicArray:
		b = occurs(strconv.Itoa(e.MinOccurs), "*")
	case CountedArray:
		b = occurs(strconv.Itoa(e.MinOccurs), e.CountField)
	}
	return append(b, " />"...)
}
