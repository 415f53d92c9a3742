package xmltext

import (
	"reflect"
	"strings"
	"testing"
)

// writeTokens writes tokens back out as a document: names as read, attribute
// values and character data through this package's escaping, CDATA sections,
// comments and processing instructions as they were. A self-closing tag
// comes out as a start and an end tag, which read back as the same tokens.
func writeTokens(toks []Token) string {
	var sb strings.Builder
	for _, tk := range toks {
		switch tk.Kind {
		case StartTag:
			sb.WriteString("<" + tk.Name.String())
			for _, a := range tk.Attrs {
				sb.WriteString(" " + a.Name.String() + `="` + EscapeAttr(a.Value) + `"`)
			}
			sb.WriteString(">")
		case EndTag:
			sb.WriteString("</" + tk.Name.String() + ">")
		case CharData:
			if tk.CDATA {
				sb.WriteString("<![CDATA[" + tk.Data + "]]>")
			} else {
				sb.Write(AppendText(nil, tk.Data))
			}
		case CommentToken:
			sb.WriteString("<!--" + tk.Data + "-->")
		case ProcInstToken:
			sb.WriteString("<?" + tk.Name.Local + " " + tk.Data + "?>")
		}
	}
	return sb.String()
}

// sameTokens reports whether two token streams are equal but for offsets,
// which re-writing moves.
func sameTokens(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Offset, y.Offset = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

func TestMarshalCompact(t *testing.T) {
	toks := mustTokens(t, `<xsd:element xmlns:xsd="u" name="fltNum" type="xsd:integer" />`)
	if len(toks) != 2 || toks[1].Kind != EndTag || toks[1].Name != toks[0].Name || len(toks[0].Attrs) != 3 {
		t.Fatalf("self-closing tag read as %+v", toks)
	}
	got := writeTokens(toks)
	want := `<xsd:element xmlns:xsd="u" name="fltNum" type="xsd:integer"></xsd:element>`
	if got != want {
		t.Errorf("written %q, want %q", got, want)
	}
}

func TestMarshalEscapes(t *testing.T) {
	src := `<f v="a&quot;&lt;&amp;">&lt;&amp;&gt;</f>`
	toks := mustTokens(t, src)
	if v, _ := toks[0].Attr("v"); v != `a"<&` || toks[1].Data != `<&>` {
		t.Errorf("read %q and %q", v, toks[1].Data)
	}
	if got := writeTokens(toks); got != src {
		t.Errorf("written %q, want %q", got, src)
	}
}

func TestMarshalCDATAAndComment(t *testing.T) {
	src := `<a><![CDATA[<raw>]]><!-- c --><?pi x?></a>`
	if got := writeTokens(mustTokens(t, src)); got != src {
		t.Errorf("written %q, want %q", got, src)
	}
}

func TestWriteDocumentRoundTrip(t *testing.T) {
	toks := mustTokens(t, `<?xml version="1.0"?><s:root xmlns:s="urn:s" a="1"><s:child>text &amp; more</s:child><empty /></s:root>`)
	again := mustTokens(t, writeTokens(toks))
	if !sameTokens(toks, again) {
		t.Fatalf("tokens changed in a round trip:\n%+v\n%+v", toks, again)
	}
	if again[1].Name.Space != "urn:s" {
		t.Error("namespace lost in round trip")
	}
	if got := text(again); got != "text & more" {
		t.Errorf("text = %q", got)
	}
}
