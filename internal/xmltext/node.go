// Package xmltext is a self-contained XML 1.0 parser and writer.
//
// The paper's xml2wire tool sits on top of an XML parsing engine (expat or
// Xerces in the original implementation) and is explicitly designed so that
// "each module is designed to accept a different compatible parsing engine
// ... with minimal integration effort". This package is that engine, hand
// rolled and dependency free, in three parts: a pull Tokenizer (token.go),
// the only code that decides what is well-formed and resolves namespaces; a
// DOM (ParseString, a builder over the tokens) for readers that want the
// whole tree, as the XML-text wire-format baseline does; and a Writer. A
// reader of few names off many elements, as xmlschema is, takes the tokens
// and builds no tree. Covered is the subset of XML that XML Schema metadata
// and text messages need — elements, attributes, character data, CDATA
// sections, comments, processing instructions, the five predefined entities,
// numeric character references, and a tolerated (but not interpreted)
// DOCTYPE declaration.
package xmltext

import (
	"fmt"
	"strings"
)

// Name is a namespace-qualified XML name. Space holds the resolved namespace
// URI (empty for names in no namespace), Prefix the original prefix as
// written, and Local the local part.
type Name struct {
	Space  string
	Prefix string
	Local  string
}

// String renders the name as written in the document (prefix:local).
func (n Name) String() string {
	if n.Prefix != "" {
		return n.Prefix + ":" + n.Local
	}
	return n.Local
}

// Attr is a single attribute. Namespace declarations (xmlns, xmlns:p) are
// kept in the attribute list so documents round-trip, and are additionally
// interpreted during parsing.
type Attr struct {
	Name  Name
	Value string
}

// Node is one node in the document tree: *Element, *Text, *Comment or
// *ProcInst.
type Node interface {
	isNode()
}

// Element is an XML element with attributes and ordered children.
type Element struct {
	Name     Name
	Attrs    []Attr
	Children []Node
	// Line and Col locate the start tag in the source, for diagnostics.
	Line, Col int
}

// Text is character data. CDATA reports whether the run came from a CDATA
// section (affects re-serialization only).
type Text struct {
	Data  string
	CDATA bool
}

// Comment is an XML comment (without the <!-- --> delimiters).
type Comment struct {
	Data string
}

// ProcInst is a processing instruction such as <?xml-stylesheet ...?>.
type ProcInst struct {
	Target string
	Data   string
}

func (*Element) isNode()  {}
func (*Text) isNode()     {}
func (*Comment) isNode()  {}
func (*ProcInst) isNode() {}

// Document is a parsed XML document.
type Document struct {
	// Prolog holds comments and processing instructions (including the XML
	// declaration, stored as a ProcInst with target "xml") that precede the
	// root element.
	Prolog []Node
	// Root is the document element.
	Root *Element
}

// Attr returns the value of the first attribute with the given local name in
// no namespace (or in any namespace if none matches exactly — schema
// documents in the wild are inconsistent about qualifying attributes).
func (e *Element) Attr(local string) (string, bool) { return findAttr(e.Attrs, local) }

func findAttr(attrs []Attr, local string) (string, bool) {
	for _, a := range attrs {
		if a.Name.Local == local && a.Name.Space == "" && a.Name.Prefix != "xmlns" {
			return a.Value, true
		}
	}
	for _, a := range attrs {
		if a.Name.Local == local && a.Name.Prefix != "xmlns" && a.Name.Local != "xmlns" {
			return a.Value, true
		}
	}
	return "", false
}

// AttrNS returns the value of the attribute with the given namespace URI and
// local name.
func (e *Element) AttrNS(space, local string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// Elements returns the child elements of e in document order.
func (e *Element) Elements() []*Element {
	out := make([]*Element, 0, len(e.Children))
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok {
			out = append(out, el)
		}
	}
	return out
}

// ElementsNamed returns the child elements whose local name matches.
func (e *Element) ElementsNamed(local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok && el.Name.Local == local {
			out = append(out, el)
		}
	}
	return out
}

// First returns the first child element with the given local name.
func (e *Element) First(local string) (*Element, bool) {
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok && el.Name.Local == local {
			return el, true
		}
	}
	return nil, false
}

// TextContent returns the concatenated character data of e and all
// descendants, the way DOM textContent does.
func (e *Element) TextContent() string {
	var sb strings.Builder
	e.appendText(&sb)
	return sb.String()
}

func (e *Element) appendText(sb *strings.Builder) {
	for _, c := range e.Children {
		switch n := c.(type) {
		case *Text:
			sb.WriteString(n.Data)
		case *Element:
			n.appendText(sb)
		}
	}
}

// SyntaxError reports a malformed document with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: line %d:%d: %s", e.Line, e.Col, e.Msg)
}
