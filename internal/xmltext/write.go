package xmltext

import (
	"io"
	"strings"
)

// EscapeText escapes character data for inclusion in element content.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>") {
		return s
	}
	return string(AppendText(make([]byte, 0, len(s)+8), s))
}

// AppendText appends s to dst, escaped for inclusion in element content.
func AppendText(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// EscapeAttr escapes an attribute value for inclusion in a double-quoted
// attribute.
func EscapeAttr(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '"':
			sb.WriteString("&quot;")
		case '\n':
			sb.WriteString("&#10;")
		case '\t':
			sb.WriteString("&#9;")
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// Writer serializes a document tree. Indent of "" produces compact output;
// any other value pretty-prints with that unit of indentation.
type Writer struct {
	w      io.Writer
	indent string
	err    error
}

// NewWriter returns a Writer emitting to w with the given indent unit.
func NewWriter(w io.Writer, indent string) *Writer {
	return &Writer{w: w, indent: indent}
}

// WriteDocument serializes a whole document, prolog included.
func (w *Writer) WriteDocument(doc *Document) error {
	for _, n := range doc.Prolog {
		w.writeNode(n, 0)
		w.nl()
	}
	if doc.Root != nil {
		w.writeNode(doc.Root, 0)
		w.nl()
	}
	return w.err
}

// WriteNode serializes a single node subtree.
func (w *Writer) WriteNode(n Node) error {
	w.writeNode(n, 0)
	return w.err
}

func (w *Writer) str(s string) {
	if w.err != nil {
		return
	}
	_, w.err = io.WriteString(w.w, s)
}

func (w *Writer) nl() {
	if w.indent != "" {
		w.str("\n")
	}
}

func (w *Writer) pad(depth int) {
	if w.indent == "" {
		return
	}
	for i := 0; i < depth; i++ {
		w.str(w.indent)
	}
}

func (w *Writer) writeNode(n Node, depth int) {
	switch t := n.(type) {
	case *Element:
		w.writeElement(t, depth)
	case *Text:
		if t.CDATA {
			w.str("<![CDATA[")
			w.str(t.Data)
			w.str("]]>")
		} else {
			w.str(EscapeText(t.Data))
		}
	case *Comment:
		w.str("<!--")
		w.str(t.Data)
		w.str("-->")
	case *ProcInst:
		w.str("<?")
		w.str(t.Target)
		if t.Data != "" {
			w.str(" ")
			w.str(t.Data)
		}
		w.str("?>")
	}
}

func (w *Writer) writeElement(e *Element, depth int) {
	w.str("<")
	w.str(e.Name.String())
	for _, a := range e.Attrs {
		w.str(" ")
		w.str(a.Name.String())
		w.str(`="`)
		w.str(EscapeAttr(a.Value))
		w.str(`"`)
	}
	if len(e.Children) == 0 {
		w.str(" />")
		return
	}
	w.str(">")

	// Mixed content (any non-whitespace text) is written inline to preserve
	// it exactly; element-only content is pretty-printed.
	if w.indent != "" && elementOnly(e) {
		for _, c := range e.Children {
			if _, ok := c.(*Text); ok {
				continue // whitespace-only
			}
			w.nl()
			w.pad(depth + 1)
			w.writeNode(c, depth+1)
		}
		w.nl()
		w.pad(depth)
	} else {
		for _, c := range e.Children {
			w.writeNode(c, depth+1)
		}
	}
	w.str("</")
	w.str(e.Name.String())
	w.str(">")
}

// elementOnly reports whether e's children contain no meaningful text.
func elementOnly(e *Element) bool {
	for _, c := range e.Children {
		if t, ok := c.(*Text); ok && strings.TrimSpace(t.Data) != "" {
			return false
		}
	}
	return true
}

// Marshal serializes a node subtree to a string with the given indent unit.
func Marshal(n Node, indent string) string {
	var sb strings.Builder
	w := NewWriter(&sb, indent)
	_ = w.WriteNode(n) // strings.Builder never errors
	return sb.String()
}
