package xmltext

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// FuzzTokens throws arbitrary bytes at the tokenizer. It must never panic,
// and when it accepts a document the token stream written back out (names
// and attributes as read, text through write.go's escaping) must parse to
// the tree ParseString builds from the original: the tokens lose nothing the
// tree keeps.
func FuzzTokens(f *testing.F) {
	f.Add(`<?xml version="1.0"?><xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
	  <xsd:complexType name="T"><xsd:element name="a" type="xsd:int"/></xsd:complexType>
	</xsd:schema>`)
	f.Add(`<a b="1" c='2'><!-- x --><![CDATA[raw]]><d>&amp;&#65;</d></a>`)
	f.Add("<!DOCTYPE r [ <!ELEMENT r ANY> ]>\n<r xmlns=\"urn:d\" xmlns:p=\"urn:p\" p:x=\"&lt;\">\n <p:c>t&gt;</p:c><?pi d?></r><!-- z -->")
	f.Add(`<r>mixed <b>content</b> tail</r>`)
	f.Add(`<a><b></a>`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, src string) {
		tok := NewTokenizer(src)
		var out strings.Builder
		for {
			tk, err := tok.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if _, again := tok.Next(); again != err {
					t.Fatalf("error not sticky: %v then %v", err, again)
				}
				if _, perr := ParseString(src); perr == nil {
					t.Fatalf("tokenizer rejects (%v) what ParseString accepts: %q", err, src)
				}
				return
			}
			switch tk.Kind {
			case StartTag:
				if writtenDifferently(tk.Name) {
					return
				}
				out.WriteString("<" + tk.Name.String())
				for _, a := range tk.Attrs {
					if writtenDifferently(a.Name) {
						return
					}
					out.WriteString(" " + a.Name.String() + `="` + EscapeAttr(a.Value) + `"`)
				}
				out.WriteString(">")
			case EndTag:
				out.WriteString("</" + tk.Name.String() + ">")
			case CharData:
				if tk.CDATA {
					out.WriteString("<![CDATA[" + tk.Data + "]]>")
				} else {
					out.WriteString(EscapeText(tk.Data))
				}
			case CommentToken:
				out.WriteString("<!--" + tk.Data + "-->")
			case ProcInstToken:
				out.WriteString("<?" + tk.Name.Local + " " + tk.Data + "?>")
			}
		}
		want, err := ParseString(src)
		if err != nil {
			t.Fatalf("ParseString rejects what the tokenizer accepts: %v\n%q", err, src)
		}
		got, err := ParseString(out.String())
		if err != nil {
			t.Fatalf("re-serialised tokens rejected: %v\ninput: %q\noutput: %q", err, src, out.String())
		}
		if a, b := Marshal(want.Root, ""), Marshal(got.Root, ""); a != b || !reflect.DeepEqual(stripPos(want.Root), stripPos(got.Root)) {
			t.Fatalf("trees differ\ninput:  %q\noutput: %q\n want %s\n got  %s", src, out.String(), a, b)
		}
	})
}

// writtenDifferently reports a name Name.String does not write back as it was
// read: one that began with a colon, whose empty prefix String drops.
func writtenDifferently(n Name) bool {
	raw := n.String()
	prefix, local := splitQName(raw)
	return raw == "" || !isNameStart(raw[0]) || prefix != n.Prefix || local != n.Local
}

// stripPos zeroes the source positions of a tree, which re-serialising moves.
func stripPos(e *Element) *Element {
	e.Line, e.Col = 0, 0
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok {
			stripPos(el)
		}
	}
	return e
}
