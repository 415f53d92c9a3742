package xmltext

import (
	"math/rand"
	"testing"
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
