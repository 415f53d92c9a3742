package xmltext

import (
	"fmt"
	"io"
)

// Parse reads an entire XML document from r and builds its tree, resolving
// namespace prefixes to URIs as it goes.
func Parse(r io.Reader) (*Document, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xml: read: %w", err)
	}
	return ParseString(string(raw))
}

// ParseString parses a document held in memory: the tree is the Tokenizer's
// tokens linked together. Comments and processing instructions after the
// root element are checked and dropped.
func ParseString(src string) (*Document, error) {
	t := NewTokenizer(src)
	doc := &Document{}
	var open []*Element
	for {
		tok, err := t.Next()
		if err == io.EOF {
			return doc, nil
		}
		if err != nil {
			return nil, err
		}
		var n Node
		switch tok.Kind {
		case StartTag:
			el := &Element{Name: tok.Name, Attrs: append([]Attr(nil), tok.Attrs...)}
			el.Line, el.Col = t.Position(tok.Offset)
			if doc.Root == nil {
				doc.Root = el
			} else {
				parent := open[len(open)-1]
				parent.Children = append(parent.Children, el)
			}
			open = append(open, el)
			continue
		case EndTag:
			open = open[:len(open)-1]
			continue
		case CharData:
			n = &Text{Data: tok.Data, CDATA: tok.CDATA}
		case CommentToken:
			n = &Comment{Data: tok.Data}
		case ProcInstToken:
			n = &ProcInst{Target: tok.Name.Local, Data: tok.Data}
		}
		switch {
		case len(open) > 0:
			parent := open[len(open)-1]
			parent.Children = append(parent.Children, n)
		case doc.Root == nil:
			doc.Prolog = append(doc.Prolog, n)
		}
	}
}
