package xmltext

import (
	"math/rand"
	"reflect"
	"testing"
)

// TEMPORARY differential run: the tokenizer-built tree and every SyntaxError
// against the recursive-descent parser it replaces (old_parser_test.go).

var diffSeeds = []string{
	`<?xml version="1.0"?><xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
	  <xsd:complexType name="T"><xsd:element name="a" type="xsd:int"/></xsd:complexType>
	</xsd:schema>`,
	`<a b="1" c='2'><!-- x --><![CDATA[raw]]><d>&amp;&#65;</d></a>`,
	`<r>mixed <b>content</b> tail</r>`,
	"<?xml version=\"1.0\"?>\n<!DOCTYPE r [ <!ELEMENT r ANY> ]>\n<!-- top -->\n<r xmlns=\"urn:d\" xmlns:p=\"urn:p\" p:x=\"1\" xml:lang=\"en\">\n  <p:c q=\"&lt;&quot;&#x41;\">t&gt;</p:c>\n  <c xmlns=\"\" xmlns:p=\"urn:q\"><p:d/></c>\n  <?pi  data ?>\n</r>\n<!-- after --><?z?>\n",
	`<a x="1" :x="2" p:y="" xmlns:p="u"><b/></a >`,
	`<a></a `,
}

func diffOne(t *testing.T, src string) {
	t.Helper()
	want, werr := oldParseString(src)
	got, gerr := ParseString(src)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q:\n old err %v\n new err %v", src, werr, gerr)
	}
	if werr != nil {
		if !reflect.DeepEqual(werr, gerr) {
			t.Fatalf("%q:\n old %v\n new %v", src, werr, gerr)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%q: trees differ\n old %s\n new %s", src, Marshal(want.Root, ""), Marshal(got.Root, ""))
	}
}

func TestDifferentialOldParser(t *testing.T) {
	for _, src := range diffSeeds {
		diffOne(t, src)
	}
	fixtures := []string{``, `hello`, `<a>`, `<a></b>`, `<a/><b/>`, `<a/>junk`, `<a x=1/>`, `<a x/>`,
		`<a x="1" x="2"/>`, `<a x="<"/>`, `<a x="1`, `<a>&nope;</a>`, `<a>&#xZZ;</a>`, `<a>&#xFFFFFFFF;</a>`,
		`<a>&amp</a>`, `<a><!-- x</a>`, `<a><!-- x -- y --></a>`, `<a><![CDATA[x</a>`, `<a><?pi x</a>`,
		`<!DOCTYPE a [ <x> <a/>`, `<!DOCTYPE a ]><a/>`, `<p:a/>`, `<a p:x="1"/>`, `<a xmlns:p=""/>`, `<a>]]></a>`, `<a `,
		`<a></a `, "<a>\n  <b></c>\n</a>", `<a/><?pi?><!-- c -->`, `<a/><!-- -- -->`, `<![CDATA[x]]><a/>`,
		`</a>`, `<a x = "1"  y= '2' />`, `<a x="1"y="2"/>`, `<a/ >`, `<a x="&#0;">&#0;</a>`, `<?xml?><a/>`, `< a/>`,
		`<xmlns:a xmlns:xmlns="u"/>`, `<a xmlns:b="u" b:c="1" b:c="2"/>`, `<a x="1" :x="2"/>`, `<a :x="1" x="2"/>`,
		`<a ::x="1" :x="2"/>`, `<a :x="1" ::x="2"/>`, `<a xmlns="u" :xmlns="v"/>`, `<a :xmlns="v"><b/></a>`}
	for _, src := range fixtures {
		diffOne(t, src)
	}
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40000; trial++ {
		doc := []byte(diffSeeds[rng.Intn(len(diffSeeds))])
		for k := 0; k < 1+rng.Intn(5) && len(doc) > 0; k++ {
			switch rng.Intn(3) {
			case 0:
				doc[rng.Intn(len(doc))] ^= byte(1 + rng.Intn(255))
			case 1:
				doc = doc[:rng.Intn(len(doc)+1)]
			case 2:
				if len(doc) > 4 {
					i := rng.Intn(len(doc) - 2)
					j := i + 1 + rng.Intn(len(doc)-i-1)
					doc = append(doc[:j:j], doc[i:]...)
				}
			}
		}
		diffOne(t, string(doc))
	}
	for trial := 0; trial < 5000; trial++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		diffOne(t, string(data))
	}
	// Bytes drawn from XML's own alphabet reach deeper than uniform noise.
	const alphabet = "<>/=\"'&;:!?-[]ax \n#CDATA"
	for trial := 0; trial < 40000; trial++ {
		data := make([]byte, rng.Intn(40))
		for i := range data {
			data[i] = alphabet[rng.Intn(len(alphabet))]
		}
		diffOne(t, string(data))
	}
}

func FuzzDifferential(f *testing.F) {
	for _, s := range diffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) { diffOne(t, src) })
}
