package xmltext

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// tokens reads src to its end, keeping each start tag's attributes.
func tokens(src string) ([]Token, error) {
	t := NewTokenizer(src)
	var out []Token
	for {
		tok, err := t.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		tok.Attrs = append([]Attr(nil), tok.Attrs...)
		out = append(out, tok)
	}
}

func mustTokens(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := tokens(src)
	if err != nil {
		t.Fatalf("tokens(%q): %v", src, err)
	}
	return toks
}

// text concatenates the character data of toks: the root's DOM textContent.
func text(toks []Token) string {
	var sb strings.Builder
	for _, tok := range toks {
		if tok.Kind == CharData {
			sb.WriteString(tok.Data)
		}
	}
	return sb.String()
}

// startTags returns the start tags of toks named local, in document order.
func startTags(toks []Token, local string) []Token {
	var out []Token
	for _, tok := range toks {
		if tok.Kind == StartTag && tok.Name.Local == local {
			out = append(out, tok)
		}
	}
	return out
}

func TestParseMinimal(t *testing.T) {
	toks := mustTokens(t, `<a/>`)
	if len(toks) != 2 || toks[0].Kind != StartTag || toks[1].Kind != EndTag ||
		toks[0].Name.Local != "a" || toks[1].Name.Local != "a" {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestParseAttributesAndText(t *testing.T) {
	toks := mustTokens(t, `<msg id="42" kind='event'>hello <b>world</b>!</msg>`)
	r := toks[0]
	if v, ok := r.Attr("id"); !ok || v != "42" {
		t.Errorf("id = %q, %v", v, ok)
	}
	if v, ok := r.Attr("kind"); !ok || v != "event" {
		t.Errorf("kind = %q, %v", v, ok)
	}
	if _, ok := r.Attr("missing"); ok {
		t.Error("missing attribute found")
	}
	if got := text(toks); got != "hello world!" {
		t.Errorf("text = %q", got)
	}
	if n := len(startTags(toks, "b")); n != 1 || len(toks) != 7 {
		t.Errorf("%d <b> in %d tokens: %+v", n, len(toks), toks)
	}
}

func TestParseEntities(t *testing.T) {
	toks := mustTokens(t, `<a q="&lt;&amp;&gt;&quot;&apos;">&#65;&#x42;&amp;</a>`)
	if v, _ := toks[0].Attr("q"); v != `<&>"'` {
		t.Errorf("attr = %q", v)
	}
	if got := text(toks); got != "AB&" {
		t.Errorf("text = %q", got)
	}
}

func TestParseCDATA(t *testing.T) {
	toks := mustTokens(t, `<a><![CDATA[<not&parsed>]]></a>`)
	if got := text(toks); got != "<not&parsed>" {
		t.Errorf("CDATA text = %q", got)
	}
	if !toks[1].CDATA {
		t.Error("CDATA flag not set")
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	toks := mustTokens(t, `<?xml version="1.0"?><!-- top --><root><!-- in --><?pi data?></root>`)
	if len(toks) != 6 {
		t.Fatalf("%d tokens: %+v", len(toks), toks)
	}
	if pi := toks[0]; pi.Kind != ProcInstToken || pi.Name.Local != "xml" || pi.Data != `version="1.0"` {
		t.Errorf("xml decl = %+v", pi)
	}
	if c := toks[1]; c.Kind != CommentToken || c.Data != " top " {
		t.Errorf("comment = %+v", c)
	}
	if c, pi := toks[3], toks[4]; c.Kind != CommentToken || c.Data != " in " ||
		pi.Kind != ProcInstToken || pi.Name.Local != "pi" || pi.Data != "data" {
		t.Errorf("root content = %+v, %+v", c, pi)
	}
}

func TestParseDoctype(t *testing.T) {
	toks := mustTokens(t, `<!DOCTYPE root [ <!ELEMENT root (#PCDATA)> ]><root>x</root>`)
	if toks[0].Name.Local != "root" || text(toks) != "x" {
		t.Error("doctype parsing broke content")
	}
}

func TestParseNamespaces(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
	  targetNamespace="http://example.org/s">
	  <xsd:complexType name="T">
	    <xsd:element name="f" type="xsd:integer"/>
	  </xsd:complexType>
	</xsd:schema>`
	toks := mustTokens(t, src)
	root := toks[0]
	if root.Name.Space != "http://www.w3.org/1999/XMLSchema" {
		t.Errorf("root ns = %q", root.Name.Space)
	}
	if root.Name.Local != "schema" || root.Name.Prefix != "xsd" {
		t.Errorf("root name = %+v", root.Name)
	}
	ct := startTags(toks, "complexType")
	if len(ct) != 1 {
		t.Fatal("complexType not found")
	}
	if ct[0].Name.Space != root.Name.Space {
		t.Error("child did not inherit prefix binding")
	}
	if v, _ := startTags(toks, "element")[0].Attr("type"); v != "xsd:integer" {
		t.Errorf("type attr = %q", v)
	}
}

func TestParseDefaultNamespace(t *testing.T) {
	toks := mustTokens(t, `<a xmlns="urn:x"><b/><c xmlns=""><d/></c></a>`)
	for _, want := range []struct{ name, space string }{{"a", "urn:x"}, {"b", "urn:x"}, {"c", ""}, {"d", ""}} {
		if got := startTags(toks, want.name)[0].Name.Space; got != want.space {
			t.Errorf("%s ns = %q, want %q", want.name, got, want.space)
		}
	}
	if end := toks[len(toks)-1]; end.Kind != EndTag || end.Name.Space != "urn:x" {
		t.Errorf("end tag %+v", end)
	}
}

// attrNS returns the value of the attribute with the given namespace URI and
// local name.
func attrNS(tok Token, space, local string) (string, bool) {
	for _, a := range tok.Attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

func TestParseNamespacedAttr(t *testing.T) {
	root := mustTokens(t, `<a xmlns:p="urn:p" p:x="1" x="2"/>`)[0]
	if v, ok := attrNS(root, "urn:p", "x"); !ok || v != "1" {
		t.Errorf("p:x = %q, %v", v, ok)
	}
	if v, ok := root.Attr("x"); !ok || v != "2" {
		t.Errorf("Attr = %q, %v", v, ok)
	}
}

func TestParseXMLPrefixImplicit(t *testing.T) {
	root := mustTokens(t, `<a xml:lang="en"/>`)[0]
	if v, ok := attrNS(root, XMLNamespace, "lang"); !ok || v != "en" {
		t.Errorf("xml:lang = %q, %v", v, ok)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"empty", ``},
		{"text only", `hello`},
		{"unclosed", `<a>`},
		{"mismatched", `<a></b>`},
		{"content after root", `<a/><b/>`},
		{"two roots text", `<a/>junk`},
		{"bad attr", `<a x=1/>`},
		{"attr no eq", `<a x/>`},
		{"dup attr", `<a x="1" x="2"/>`},
		{"lt in attr", `<a x="<"/>`},
		{"unterminated attr", `<a x="1`},
		{"unknown entity", `<a>&nope;</a>`},
		{"bad char ref", `<a>&#xZZ;</a>`},
		{"huge char ref", `<a>&#xFFFFFFFF;</a>`},
		{"unterminated entity", `<a>&amp</a>`},
		{"unterminated comment", `<a><!-- x</a>`},
		{"double dash comment", `<a><!-- x -- y --></a>`},
		{"unterminated cdata", `<a><![CDATA[x</a>`},
		{"unterminated pi", `<a><?pi x</a>`},
		{"unterminated doctype", `<!DOCTYPE a [ <x> <a/>`},
		{"undeclared prefix", `<p:a/>`},
		{"undeclared attr prefix", `<a p:x="1"/>`},
		{"empty prefix uri", `<a xmlns:p=""/>`},
		{"cdata end in text", `<a>]]></a>`},
		{"eof in start tag", `<a `},
		{"bad end tag", `<a></a `},
		{"empty prefix", `<:a/>`},
		{"empty local part", `<p: xmlns:p="urn:p"/>`},
		{"empty attr prefix", `<a :x="1"/>`},
		{"empty attr local part", `<a xmlns:p="urn:p" p:="1"/>`},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tokens(tt.src)
			if err == nil {
				t.Errorf("tokens(%q) succeeded, want error", tt.src)
			}
			var se *SyntaxError
			if err != nil && !errors.As(err, &se) {
				t.Errorf("error %v is not a *SyntaxError", err)
			}
		})
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := tokens("<a>\n  <b></c>\n</a>")
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "line 2") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestDeeplyNested(t *testing.T) {
	const depth = 500
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<a>")
	}
	sb.WriteString("x")
	for i := 0; i < depth; i++ {
		sb.WriteString("</a>")
	}
	toks := mustTokens(t, sb.String())
	if len(toks) != 2*depth+1 || text(toks) != "x" {
		t.Errorf("deep nesting: %d tokens, text %q", len(toks), text(toks))
	}
}

// Property: escaping then parsing yields the original text.
func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		// Strip control chars and invalid UTF-8 that XML forbids outright.
		clean := strings.Map(func(r rune) rune {
			if r == '�' || (r < 0x20 && r != '\t' && r != '\n' && r != '\r') {
				return -1
			}
			return r
		}, s)
		clean = strings.ReplaceAll(clean, "\r", "") // parser keeps \r; writers vary
		toks, err := tokens("<a>" + string(AppendText(nil, clean)) + "</a>")
		return err == nil && text(toks) == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAttrEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		clean := strings.Map(func(r rune) rune {
			if r == '�' || (r < 0x20 && r != '\t' && r != '\n') {
				return -1
			}
			return r
		}, s)
		toks, err := tokens(`<a v="` + EscapeAttr(clean) + `"/>`)
		if err != nil {
			return false
		}
		v, _ := toks[0].Attr("v")
		return v == clean
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNameString(t *testing.T) {
	if (Name{Prefix: "xsd", Local: "element"}).String() != "xsd:element" {
		t.Error("prefixed Name.String wrong")
	}
	if (Name{Local: "element"}).String() != "element" {
		t.Error("bare Name.String wrong")
	}
}
