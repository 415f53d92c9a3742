package xmltext

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"openmeta/internal/testutil"
)

// The tokenizer consumes documents from the network (schema documents, XML
// text messages); arbitrary bytes must produce tokens or an error, never a
// panic.

func TestParseNeverPanicsOnMutatedDocuments(t *testing.T) {
	seeds := []string{
		`<?xml version="1.0"?><xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
		  <xsd:complexType name="T"><xsd:element name="a" type="xsd:int"/></xsd:complexType>
		</xsd:schema>`,
		`<a b="1" c='2'><!-- x --><![CDATA[raw]]><d>&amp;&#65;</d></a>`,
		`<r>mixed <b>content</b> tail</r>`,
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		doc := []byte(seeds[rng.Intn(len(seeds))])
		for k := 0; k < 1+rng.Intn(5); k++ {
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
			if len(doc) == 0 {
				break
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("tokens(%q) panicked: %v", doc, r)
				}
			}()
			if toks, err := tokens(string(doc)); err == nil {
				// Whatever was accepted must survive writing and reading again.
				out := writeTokens(toks)
				if _, err := tokens(out); err != nil {
					t.Fatalf("re-read of written tokens failed: %v\ninput: %q\noutput: %q",
						err, doc, out)
				}
			}
		}()
	}
}

func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("tokens panicked on random input: %v", r)
				}
			}()
			_, _ = tokens(string(data))
		}()
	}
}

// TestTokenizerLinearOnHostileTags: the duplicate-attribute check and prefix
// resolution cost linear time, on one tag with n attributes and on n nested
// elements that each declare prefixes of their own while every name uses
// the outermost.
func TestTokenizerLinearOnHostileTags(t *testing.T) {
	tokenize := func(doc []byte) {
		tk := NewTokenizer(string(doc))
		for {
			if _, err := tk.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("attributes", func(t *testing.T) {
		testutil.AssertLinear(t, func(n int) []byte {
			var b strings.Builder
			b.WriteString(`<r xmlns:p="urn:p"`)
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, ` a%d="" p:a%d=""`, i, i)
			}
			b.WriteString("/>")
			return []byte(b.String())
		}, tokenize)
	})
	t.Run("bindings", func(t *testing.T) {
		testutil.AssertLinear(t, func(n int) []byte {
			var b strings.Builder
			b.WriteString(`<p:e xmlns:p="urn:p">`)
			for i := 0; i < n; i++ {
				b.WriteString("<p:e")
				for j := 0; j < 8; j++ {
					fmt.Fprintf(&b, ` xmlns:q%d_%d="urn:q"`, i, j)
				}
				b.WriteString(` p:a="" p:b="" p:c="" p:d="">`)
			}
			b.WriteString(strings.Repeat("</p:e>", n+1))
			return []byte(b.String())
		}, tokenize)
	})
}

// TestTokenizerPastIndexMin: past indexMin the maps give the answers the
// loops give. Duplicates and undeclared prefixes fail, and a rebinding
// shadows its prefix only until its element ends.
func TestTokenizerPastIndexMin(t *testing.T) {
	many := func(format string) string {
		var b strings.Builder
		for i := 0; i < 2*indexMin; i++ {
			fmt.Fprintf(&b, format, i)
		}
		return b.String()
	}
	attrs, decls := many(` a%d=""`), many(` xmlns:q%d="urn:q"`)
	tokens := func(doc string) ([]Token, error) {
		var out []Token
		tk := NewTokenizer(doc)
		for {
			tok, err := tk.Next()
			if err == io.EOF {
				return out, nil
			} else if err != nil {
				return out, err
			}
			out = append(out, tok)
		}
	}
	for _, doc := range []string{
		`<r` + attrs + ` a3=""/>`,
		`<r xmlns:p="urn:p"` + attrs + ` p:a3="" p:a3=""/>`,
		`<r` + decls + `><q1:e xmlns:x="urn:x"/><x:e/></r>`,
	} {
		if _, err := tokens(doc); err == nil {
			t.Errorf("accepted %.60q...", doc)
		}
	}
	toks, err := tokens(`<r xmlns:p="urn:outer"` + decls + `><p:e xmlns:p="urn:inner"/><p:e/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var spaces []string
	for _, tok := range toks {
		if tok.Kind == StartTag {
			spaces = append(spaces, tok.Name.Space)
		}
	}
	if want := []string{"", "urn:inner", "urn:outer"}; fmt.Sprint(spaces) != fmt.Sprint(want) {
		t.Errorf("element namespaces = %q, want %q", spaces, want)
	}
}
