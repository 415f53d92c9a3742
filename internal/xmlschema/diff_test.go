package xmlschema

import (
	"errors"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"openmeta/internal/xmltext"
)

// TEMPORARY differential run: the streaming parser against the DOM walk it
// replaces (old_parse_test.go).

var sentinels = []error{ErrNotSchema, ErrDuplicateType, ErrDuplicateElement, ErrUnknownType,
	ErrBadOccurs, ErrBadCountField, ErrNoTypes}

// DiffOne is exported to the external differential test through export_test.go.
func diffOne(t *testing.T, src string) (accepted bool) {
	t.Helper()
	var want *Schema
	doc, werr := xmltext.ParseString(src)
	if werr == nil {
		want, werr = oldFromDocument(doc)
	}
	got, gerr := ParseString(src)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q:\n old err %v\n new err %v", src, werr, gerr)
	}
	if werr == nil {
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%q: schemas differ\n old %+v\n new %+v", src, want, got)
		}
		return true
	}
	if werr.Error() != gerr.Error() {
		t.Fatalf("%q:\n old %v\n new %v", src, werr, gerr)
	}
	for _, s := range sentinels {
		if errors.Is(werr, s) != errors.Is(gerr, s) {
			t.Fatalf("%q: sentinel %v: old %v new %v", src, s, werr, gerr)
		}
	}
	var wse, gse *xmltext.SyntaxError
	if errors.As(werr, &wse) != errors.As(gerr, &gse) || !reflect.DeepEqual(wse, gse) {
		t.Fatalf("%q: syntax errors differ: %v vs %v", src, werr, gerr)
	}
	return false
}

// fixtures returns every string literal holding markup in the package's
// test files, which is every document its tests parse.
func fixtures(t *testing.T) []string {
	var out []string
	for _, file := range []string{"parse_test.go", "simpletype_test.go", "fuzz_test.go", "diff_test.go"} {
		f, err := goparser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "<") {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// More orderings than the package's fixtures reach: which of two flaws is
// reported, what is skipped unread, where documentation text comes from.
var orderings = []string{
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"><xsd:import/><xsd:complexType name="T"></xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
	<xsd:simpleType name="S"><xsd:restriction base="xsd:quark"><xsd:nope/></xsd:restriction><xsd:bogus/></xsd:simpleType></xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
	<xsd:simpleType name="S"><xsd:restriction><xsd:maxLength value="x"/></xsd:restriction><xsd:extension base="xsd:int"/></xsd:simpleType></xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
	<xsd:simpleType name="S"><xsd:restriction base="xsd:string"><xsd:maxLength value="x"/><xsd:nope/></xsd:restriction></xsd:simpleType></xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema" targetNamespace="urn:t" xsd:targetNamespace="urn:u">
	<xsd:annotation><xsd:appinfo>no</xsd:appinfo><xsd:documentation> a <b>b<![CDATA[ c ]]></b><!-- x --> d &amp; </xsd:documentation><xsd:documentation>second</xsd:documentation></xsd:annotation>
	<xsd:annotation/>
	<xsd:simpleType name="S"><xsd:annotation><xsd:documentation>s</xsd:documentation></xsd:annotation><xsd:restriction base="xsd:string">
	  <xsd:enumeration value="a"><xsd:junk/></xsd:enumeration><xsd:enumeration/><xsd:minInclusive value="1"/><xsd:maxInclusive value="2"/><xsd:maxLength value="7"/><xsd:pattern value="."/></xsd:restriction></xsd:simpleType>
	<xsd:simpleType name="S2"><xsd:extension base="S"/></xsd:simpleType>
	<xsd:complexType name="T"><xsd:annotation><xsd:documentation>t</xsd:documentation></xsd:annotation>
	  <xsd:sequence><xsd:all><xsd:element name="a" type="S2" minOccurs="0" maxOccurs="*"><xsd:annotation><xsd:bogus/></xsd:annotation>text</xsd:element></xsd:all>
	  <xsd:annotation><xsd:documentation>inner</xsd:documentation></xsd:annotation></xsd:sequence>
	  <xsd:element name="a_count" type="xsd:int"/><xsd:element name="n" type="xsd:unsigned-long"/><xsd:element name="b" type="p:double" maxOccurs="n"/>
	  <xsd:element name="c" type="xsd:short" maxOccurs="1"/><xsd:element name="d" type="long" maxOccurs="07"/>
	</xsd:complexType>
	<xsd:complexType name="U"><xsd:element name="t" type="T" maxOccurs="unbounded"/><xsd:element name="t_count" type="xsd:int"/></xsd:complexType>
	</xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"><xsd:complexType name="U"><xsd:element name="t" type="xsd:int" maxOccurs="unbounded"/><xsd:element name="t_count" type="xsd:float"/></xsd:complexType></xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"><xsd:complexType name="T"><xsd:element name="a" type="xsd:int"/><xsd:element name="a" type="xsd:nope"/></xsd:complexType></xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"><xsd:complexType name="T"><xsd:element name="a" type="xsd:int" maxOccurs="99999999999999999999"/></xsd:complexType></xsd:schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"><xsd:complexType name="T"><xsd:element name="a" type="xsd:int"/></xsd:complexType></xsd:schema><!-- c --><?pi?>junk`,
	`<schema xmlns="http://www.w3.org/2001/XMLSchema"><complexType name="T"><element name="a" type="int"/><element name="b" type="T"/></complexType></schema>`,
	`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"><xsd:complexType name="T"><xsd:element name="a" type="xsd:int"/></xsd:complexType><xsd:simpleType name="T"><xsd:restriction base="xsd:int"/></xsd:simpleType></xsd:schema>`,
}

func mutate(rng *rand.Rand, seed string) string {
	doc := []byte(seed)
	for k := 0; k < 1+rng.Intn(5) && len(doc) > 0; k++ {
		switch rng.Intn(3) {
		case 0: // flip
			doc[rng.Intn(len(doc))] ^= byte(1 + rng.Intn(255))
		case 1: // truncate
			doc = doc[:rng.Intn(len(doc)+1)]
		case 2: // duplicate a chunk
			if len(doc) > 4 {
				i := rng.Intn(len(doc) - 2)
				j := i + 1 + rng.Intn(len(doc)-i-1)
				doc = append(doc[:j:j], doc[i:]...)
			}
		}
	}
	return string(doc)
}

// splice swaps element-sized pieces between documents, which keeps far more
// of them well-formed than byte mutations do, so the schema checks are what
// gets compared.
func splice(rng *rand.Rand, seeds []string) string {
	a, b := seeds[rng.Intn(len(seeds))], seeds[rng.Intn(len(seeds))]
	cut := func(s string) int {
		var at []int
		for i := 0; i < len(s); i++ {
			if s[i] == '<' {
				at = append(at, i)
			}
		}
		if len(at) == 0 {
			return 0
		}
		return at[rng.Intn(len(at))]
	}
	i, j, k := cut(a), cut(b), cut(b)
	if j > k {
		j, k = k, j
	}
	return a[:i] + b[j:k] + a[i:]
}

func TestDifferentialOldParser(t *testing.T) {
	seeds := append(fixtures(t), orderings...)
	accepted := 0
	for _, src := range seeds {
		if diffOne(t, src) {
			accepted++
		}
	}
	t.Logf("%d fixtures, %d accepted", len(seeds), accepted)
	corpus, _ := filepath.Glob("testdata/fuzz/FuzzParseSchema/*")
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		diffOne(t, string(raw))
	}
	rng := rand.New(rand.NewSource(24))
	for _, seed := range []string{schemaA, schemaB, schemaCD, schemaWithSimpleTypes, orderings[4]} {
		accepted = 0
		for trial := 0; trial < 4000; trial++ {
			if diffOne(t, mutate(rng, seed)) {
				accepted++
			}
		}
		t.Logf("mutations of %.40q...: %d of 4000 accepted", seed, accepted)
	}
	accepted = 0
	for trial := 0; trial < 30000; trial++ {
		if diffOne(t, splice(rng, seeds)) {
			accepted++
		}
	}
	t.Logf("splices: %d of 30000 accepted", accepted)
}

func FuzzDifferential(f *testing.F) {
	for _, s := range append(fixtures(&testing.T{}), orderings...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) { diffOne(t, src) })
}
