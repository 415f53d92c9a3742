package xmltext

import (
	"io"
	"testing"
)

// FuzzTokens throws arbitrary bytes at the tokenizer. It must never panic,
// its errors must be sticky, and when it accepts a document the tokens
// written back out (names as read, text through this package's escaping)
// must read back as the same tokens: they lose nothing a reader could need.
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
		var toks []Token
		for {
			tk, err := tok.Next()
			if err != nil {
				if _, again := tok.Next(); again != err {
					t.Fatalf("error not sticky: %v then %v", err, again)
				}
				if err != io.EOF {
					return
				}
				break
			}
			tk.Attrs = append([]Attr(nil), tk.Attrs...)
			toks = append(toks, tk)
		}
		out := writeTokens(toks)
		again, err := tokens(out)
		if err != nil {
			t.Fatalf("written tokens rejected: %v\ninput:  %q\noutput: %q", err, src, out)
		}
		if !sameTokens(toks, again) {
			t.Fatalf("tokens differ\ninput:  %q\noutput: %q\n want %+v\n got  %+v", src, out, toks, again)
		}
	})
}
