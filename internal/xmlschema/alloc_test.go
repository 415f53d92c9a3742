package xmlschema

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseAllocations pins what the streaming parser costs: a 48-field,
// two-type document (the largest cold_bind shape: scalars, static and dynamic
// arrays, a nested type) is read in a number of allocations that does not
// grow with the size of the document's tree — tokenizer state, the Schema and
// its types, the element lists, the name index and one count-field name per
// dynamic array. The DOM walk this replaced took about 400.
func TestParseAllocations(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema" targetNamespace="urn:alloc">
  <xsd:annotation><xsd:documentation>allocation pin</xsd:documentation></xsd:annotation>
  <xsd:complexType name="Inner">
    <xsd:element name="a" type="xsd:int" />
    <xsd:element name="b" type="xsd:double" />
    <xsd:element name="c" type="xsd:string" />
  </xsd:complexType>
  <xsd:complexType name="Outer">
`)
	for i := 0; i < 48; i++ {
		typ, occurs := []string{"xsd:int", "xsd:double", "xsd:string", "Inner"}[i%4], ""
		switch i % 8 {
		case 1:
			occurs = ` minOccurs="0" maxOccurs="*"`
		case 4:
			occurs = ` minOccurs="3" maxOccurs="3"`
		}
		fmt.Fprintf(&b, "    <xsd:element name=\"f%02d\" type=\"%s\"%s />\n", i, typ, occurs)
	}
	b.WriteString("  </xsd:complexType>\n</xsd:schema>\n")
	doc := b.String()

	s, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if outer, ok := s.TypeByName("Outer"); !ok || len(outer.Elements) != 48 {
		t.Fatalf("Outer = %+v", outer)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ParseString(doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ParseString: %.0f allocations for %d bytes", allocs, len(doc))
	if allocs > 40 {
		t.Errorf("ParseString of a 48-field document: %.0f allocations, want at most 40", allocs)
	}
}
