package xmlschema

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// edgeSchema is built in code, not parsed, to reach what no parsed document
// has: markup characters in documentation and attribute values, documentation
// that is only white space, a complexType with no content, a counted array.
var edgeSchema = &Schema{
	TargetNamespace: `urn:a&b<"c">`,
	Doc:             "top <doc> & more",
	Types: []*ComplexType{
		{Name: "Empty"},
		{Name: "Spaced", Doc: " \n\t"},
		{Name: "T", Doc: "a \"quoted\" type", Elements: []Element{
			{Name: "n", Type: TypeRef{Primitive: Int}},
			{Name: "v", Type: TypeRef{Primitive: Double}, Array: CountedArray, CountField: "n"},
			{Name: "s", Type: TypeRef{Named: "Empty"}, Array: StaticArray, Size: 3},
			{Name: "d", Type: TypeRef{Primitive: Float}, Array: DynamicArray, MinOccurs: 2, CountField: "d_count"},
		}},
	},
}

// TestMarshalStringGolden pins MarshalString's text byte for byte: the
// metadata repository serves it, and discovery stores it and hashes it to
// notice a changed schema, so rendering the same schema differently is a
// change every client sees.
func TestMarshalStringGolden(t *testing.T) {
	cases := []struct {
		file string
		s    *Schema
	}{
		{"a.xsd", mustParseSchema(t, schemaA)},
		{"b.xsd", mustParseSchema(t, schemaB)},
		{"cd.xsd", mustParseSchema(t, schemaCD)},
		{"simpletypes.xsd", mustParseSchema(t, schemaWithSimpleTypes)},
		{"edge.xsd", edgeSchema},
		{"empty.xsd", &Schema{}},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", "marshal", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := MarshalString(tc.s); got != string(want) {
			t.Errorf("%s: MarshalString differs from the golden text\n got %q\nwant %q", tc.file, got, want)
		}
	}
}

func TestPrettyPrint(t *testing.T) {
	s := &Schema{Types: []*ComplexType{{Name: "T", Elements: []Element{{Name: "f", Type: TypeRef{Primitive: Int}}}}}}
	want := `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="T">
    <xsd:element name="f" type="xsd:int" />
  </xsd:complexType>
</xsd:schema>
`
	if got := MarshalString(s); got != want {
		t.Errorf("MarshalString = %q, want %q", got, want)
	}
}

// Documentation text is written on its tag's line, escaped, and reads back
// as it was.
func TestPrettyPrintPreservesMixedContent(t *testing.T) {
	s := mustParseSchema(t, schemaA)
	s.Doc = "mixed <b>content</b> & here"
	out := MarshalString(s)
	if !strings.Contains(out, "\n    <xsd:documentation>mixed &lt;b&gt;content&lt;/b&gt; &amp; here</xsd:documentation>\n") {
		t.Errorf("documentation not inline and escaped:\n%s", out)
	}
	if back := mustParseSchema(t, out); back.Doc != s.Doc {
		t.Errorf("documentation read back as %q", back.Doc)
	}
}

func mustParseSchema(t *testing.T, src string) *Schema {
	t.Helper()
	s, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
