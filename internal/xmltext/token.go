// Package xmltext is a self-contained XML 1.0 reader, with the escaping its
// writers need.
//
// The paper's xml2wire tool sits on top of an XML parsing engine (expat or
// Xerces in the original implementation) and is explicitly designed so that
// "each module is designed to accept a different compatible parsing engine
// ... with minimal integration effort". This package is that engine, hand
// rolled and dependency free: a pull Tokenizer, the only code that decides
// what is well-formed and resolves namespaces. Its readers — the schema
// parser, the XML-text wire-format decoder, instance matching — take what
// they use off the tokens and build no tree, as expat's callers do. Covered
// is the subset of XML that XML Schema metadata and text messages need —
// elements, attributes, character data, CDATA sections, comments, processing
// instructions, the five predefined entities, numeric character references,
// and a tolerated (but not interpreted) DOCTYPE declaration.
package xmltext

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// XMLNamespace is the reserved namespace bound to the "xml" prefix.
const XMLNamespace = "http://www.w3.org/XML/1998/namespace"

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

// SyntaxError reports a malformed document with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Kind identifies what a Token holds.
type Kind uint8

// Token kinds.
const (
	StartTag Kind = iota + 1
	EndTag
	CharData
	CommentToken
	ProcInstToken
)

// Token is one lexical unit of a document. Names and text are slices of the
// source wherever no entity had to be expanded.
type Token struct {
	Kind Kind
	// Name is the namespace-resolved element name of a StartTag or EndTag;
	// for a ProcInstToken its Local part is the target.
	Name Name
	// Attrs are the attributes of a StartTag, prefixes resolved, xmlns
	// declarations kept. The slice is reused by the next call to Next.
	Attrs []Attr
	// Data is character data with references expanded (CharData), or the
	// body of a comment or processing instruction.
	Data string
	// CDATA marks character data that came from a CDATA section.
	CDATA bool
	// Offset is the byte offset of a StartTag in the source, for Position.
	Offset int
}

// Attr returns the value of the start tag's first attribute with the given
// local name in no namespace (or in any namespace if none matches exactly —
// schema documents in the wild are inconsistent about qualifying
// attributes).
func (t *Token) Attr(local string) (string, bool) { return findAttr(t.Attrs, local) }

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

type nsBinding struct{ prefix, uri string }

// indexMin is how many attributes of one tag, or namespace bindings in
// scope, the tokenizer compares one by one. Past it a map takes over, so
// that a hostile tag or nesting costs linear time.
const indexMin = 32

// nsIndex finds the innermost binding of a prefix once more than indexMin
// bindings are in scope.
type nsIndex struct {
	innermost map[string]int // prefix → index of its innermost binding in Tokenizer.ns
	hidden    []int          // per binding, the index of the binding it hides, or -1
}

func (x *nsIndex) add(prefix string, i int) {
	h, ok := x.innermost[prefix]
	if !ok {
		h = -1
	}
	x.hidden = append(x.hidden[:i], h)
	x.innermost[prefix] = i
}

// openElement is an element whose end tag has not been read.
type openElement struct {
	raw  string // name as written, which the end tag must repeat
	name Name
	ns   int // len(Tokenizer.ns) before the element's own declarations
}

// Tokenizer reads a document one token at a time and is this package's one
// implementation of well-formedness: tags nest and match, attributes are
// unique, prefixes are declared, references resolve, exactly one root. A
// self-closing tag reads as a StartTag followed by an EndTag. It allocates
// only to expand references and to report an error.
type Tokenizer struct {
	src  string
	pos  int
	err  error
	root bool // the root element has been closed
	self bool // the last StartTag was self-closing: its EndTag is due

	attrs []Attr
	ns    []nsBinding
	nsIdx *nsIndex // nil until more than indexMin bindings were in scope
	open  []openElement

	// Position's cursor: the last offset resolved, its line, and the offset
	// at which that line begins.
	posOff, posLine, posBOL int
}

// NewTokenizer returns a Tokenizer over a document held in memory.
func NewTokenizer(src string) *Tokenizer {
	t := &Tokenizer{src: src, posLine: 1,
		attrs: make([]Attr, 0, 8), ns: make([]nsBinding, 1, 8), open: make([]openElement, 0, 16)}
	t.ns[0] = nsBinding{"xml", XMLNamespace}
	return t
}

// Position converts a byte offset of the source to a 1-based line and byte
// column. Offsets that do not decrease cost one scan of the bytes between.
func (t *Tokenizer) Position(off int) (line, col int) {
	if off < t.posOff {
		t.posOff, t.posLine, t.posBOL = 0, 1, 0
	}
	between := t.src[t.posOff:off]
	if n := strings.Count(between, "\n"); n > 0 {
		t.posLine += n
		t.posBOL = t.posOff + strings.LastIndexByte(between, '\n') + 1
	}
	t.posOff = off
	return t.posLine, off - t.posBOL + 1
}

// errf records a syntax error at the cursor; every later Next repeats it.
func (t *Tokenizer) errf(format string, args ...interface{}) error {
	line, col := t.Position(t.pos)
	t.err = &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
	return t.err
}

// Next returns the next token, io.EOF after the last one, or a *SyntaxError.
// Outside the root element white space and DOCTYPEs are passed over, and
// only comments and processing instructions may stand.
func (t *Tokenizer) Next() (Token, error) {
	if t.err != nil {
		return Token{}, t.err
	}
	if t.self {
		t.self = false
		return t.pop(), nil
	}
	inside := len(t.open) > 0
	for {
		if !inside {
			t.skipSpace()
		}
		switch {
		case t.pos >= len(t.src) && inside:
			return Token{}, t.errf("unexpected EOF: unclosed element <%s>", t.open[len(t.open)-1].raw)
		case t.pos >= len(t.src) && t.root:
			t.err = io.EOF
			return Token{}, io.EOF
		case t.pos >= len(t.src):
			return Token{}, t.errf("no root element")
		case t.src[t.pos] != '<' && inside:
			return t.charData()
		case t.src[t.pos] != '<' && !t.root:
			return Token{}, t.errf("character data outside root element")
		case inside && t.hasPrefix("</"):
			return t.endTag()
		case t.hasPrefix("<!--"):
			return t.comment()
		case inside && t.hasPrefix("<![CDATA["):
			return t.cdata()
		case t.hasPrefix("<?"):
			return t.procInst()
		case t.root:
			return Token{}, t.errf("content after root element")
		case inside || !t.hasPrefix("<!DOCTYPE"):
			return t.startTag()
		}
		if err := t.skipDoctype(); err != nil {
			return Token{}, err
		}
	}
}

func (t *Tokenizer) hasPrefix(p string) bool { return strings.HasPrefix(t.src[t.pos:], p) }

// skipSpace consumes XML whitespace (space, tab, CR, LF).
func (t *Tokenizer) skipSpace() {
	for t.pos < len(t.src) {
		switch t.src[t.pos] {
		case ' ', '\t', '\r', '\n':
			t.pos++
		default:
			return
		}
	}
}

// isNameStart reports whether b can start an XML name. Multi-byte UTF-8
// sequences are accepted wholesale; full Unicode name validation is beyond
// what metadata documents need.
func isNameStart(b byte) bool {
	return b == '_' || b == ':' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || b >= 0x80
}

// isNameChar reports whether b can appear inside an XML name.
func isNameChar(b byte) bool {
	return isNameStart(b) || b == '-' || b == '.' || (b >= '0' && b <= '9')
}

// name consumes an XML name; ok is false, and nothing consumed, if none
// starts at the cursor.
func (t *Tokenizer) name() (string, bool) {
	start := t.pos
	if start >= len(t.src) || !isNameStart(t.src[start]) {
		return "", false
	}
	for t.pos < len(t.src) && isNameChar(t.src[t.pos]) {
		t.pos++
	}
	return t.src[start:t.pos], true
}

// splitQName splits a name as written at its first colon. ok is false if the
// prefix or the local part beside that colon is empty, which the Namespaces
// in XML spec forbids.
func splitQName(q string) (prefix, local string, ok bool) {
	i := strings.IndexByte(q, ':')
	if i < 0 {
		return "", q, true
	}
	return q[:i], q[i+1:], i > 0 && i < len(q)-1
}

// bind puts a namespace binding in scope.
func (t *Tokenizer) bind(prefix, uri string) {
	t.ns = append(t.ns, nsBinding{prefix, uri})
	switch {
	case t.nsIdx != nil:
		t.nsIdx.add(prefix, len(t.ns)-1)
	case len(t.ns) > indexMin:
		t.nsIdx = &nsIndex{innermost: make(map[string]int, 2*indexMin)}
		for i, b := range t.ns {
			t.nsIdx.add(b.prefix, i)
		}
	}
}

// unbind drops the bindings from the n-th on.
func (t *Tokenizer) unbind(n int) {
	if x := t.nsIdx; x != nil {
		for i := len(t.ns) - 1; i >= n; i-- {
			if h := x.hidden[i]; h >= 0 {
				x.innermost[t.ns[i].prefix] = h
			} else {
				delete(x.innermost, t.ns[i].prefix)
			}
		}
		x.hidden = x.hidden[:n]
	}
	t.ns = t.ns[:n]
}

// lookup resolves a namespace prefix ("" for the default namespace, which
// defaults to none) against the innermost binding.
func (t *Tokenizer) lookup(prefix string) (string, bool) {
	if t.nsIdx != nil {
		if i, ok := t.nsIdx.innermost[prefix]; ok {
			return t.ns[i].uri, true
		}
		return "", prefix == ""
	}
	for i := len(t.ns) - 1; i >= 0; i-- {
		if t.ns[i].prefix == prefix {
			return t.ns[i].uri, true
		}
	}
	return "", prefix == ""
}

// sameAttr reports whether an attribute already read was written as raw.
func sameAttr(n Name, raw string) bool {
	if n.Prefix == "" && n.Local == raw {
		return true
	}
	p := len(n.Prefix)
	return len(raw) == p+1+len(n.Local) && raw[:p] == n.Prefix && raw[p] == ':' && raw[p+1:] == n.Local
}

// startTag reads a start tag whose '<' is at the cursor.
func (t *Tokenizer) startTag() (Token, error) {
	start := t.pos
	t.pos++
	raw, ok := t.name()
	if !ok {
		return Token{}, t.errf("expected name")
	}
	prefix, local, ok := splitQName(raw)
	if !ok {
		return Token{}, t.errf("malformed name <%s>", raw)
	}
	t.attrs = t.attrs[:0]
	var seen map[string]bool // the attribute names past the first indexMin
	for {
		t.skipSpace()
		if t.pos >= len(t.src) {
			return Token{}, t.errf("unexpected EOF in start tag <%s>", raw)
		}
		if t.src[t.pos] == '>' {
			t.pos++
			break
		}
		if t.hasPrefix("/>") {
			t.pos += 2
			t.self = true
			break
		}
		aName, ok := t.name()
		if !ok {
			return Token{}, t.errf("malformed attribute in <%s>", raw)
		}
		pre, loc, ok := splitQName(aName)
		if !ok {
			return Token{}, t.errf("malformed attribute name %q in <%s>", aName, raw)
		}
		t.skipSpace()
		if t.pos >= len(t.src) || t.src[t.pos] != '=' {
			return Token{}, t.errf("attribute %q missing '='", aName)
		}
		t.pos++
		t.skipSpace()
		val, err := t.attrValue()
		if err != nil {
			return Token{}, err
		}
		if len(t.attrs) < indexMin {
			for _, a := range t.attrs {
				if sameAttr(a.Name, aName) {
					return Token{}, t.errf("duplicate attribute %q in <%s>", aName, raw)
				}
			}
		} else {
			if seen == nil {
				seen = make(map[string]bool, 2*indexMin)
				for _, a := range t.attrs {
					seen[a.Name.String()] = true
				}
			}
			if seen[aName] {
				return Token{}, t.errf("duplicate attribute %q in <%s>", aName, raw)
			}
			seen[aName] = true
		}
		t.attrs = append(t.attrs, Attr{Name: Name{Prefix: pre, Local: loc}, Value: val})
	}

	// The element's own xmlns declarations are in scope for its name and
	// its attributes; the declarations themselves stay prefix-only.
	el := openElement{raw: raw, ns: len(t.ns)}
	for _, a := range t.attrs {
		switch {
		case a.Name.Prefix == "" && a.Name.Local == "xmlns":
			t.bind("", a.Value)
		case a.Name.Prefix == "xmlns" && a.Value == "":
			return Token{}, t.errf("namespace prefix %q bound to empty URI", a.Name.Local)
		case a.Name.Prefix == "xmlns":
			t.bind(a.Name.Local, a.Value)
		}
	}
	for i := range t.attrs {
		a := &t.attrs[i]
		if a.Name.Prefix == "" || a.Name.Prefix == "xmlns" {
			continue
		}
		if a.Name.Space, ok = t.lookup(a.Name.Prefix); !ok {
			return Token{}, t.errf("undeclared namespace prefix %q", a.Name.Prefix)
		}
	}
	uri, ok := t.lookup(prefix)
	if !ok {
		return Token{}, t.errf("undeclared namespace prefix %q", prefix)
	}
	el.name = Name{Space: uri, Prefix: prefix, Local: local}
	t.open = append(t.open, el)
	return Token{Kind: StartTag, Name: el.name, Attrs: t.attrs, Offset: start}, nil
}

// endTag reads an end tag whose "</" is at the cursor.
func (t *Tokenizer) endTag() (Token, error) {
	t.pos += 2
	name, ok := t.name()
	if !ok {
		return Token{}, t.errf("expected name")
	}
	if want := t.open[len(t.open)-1].raw; name != want {
		return Token{}, t.errf("mismatched end tag </%s>, expected </%s>", name, want)
	}
	t.skipSpace()
	if t.pos >= len(t.src) || t.src[t.pos] != '>' {
		return Token{}, t.errf("malformed end tag </%s>", name)
	}
	t.pos++
	return t.pop(), nil
}

// pop closes the innermost open element and drops its namespace bindings.
func (t *Tokenizer) pop() Token {
	el := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.unbind(el.ns)
	t.root = len(t.open) == 0
	return Token{Kind: EndTag, Name: el.name}
}

func (t *Tokenizer) attrValue() (string, error) {
	if t.pos >= len(t.src) {
		return "", t.errf("unexpected EOF in attribute value")
	}
	quote := t.src[t.pos]
	if quote != '"' && quote != '\'' {
		return "", t.errf("attribute value must be quoted")
	}
	t.pos++
	start := t.pos
	for t.pos < len(t.src) && t.src[t.pos] != quote {
		if t.src[t.pos] == '<' {
			return "", t.errf("'<' in attribute value")
		}
		t.pos++
	}
	if t.pos >= len(t.src) {
		return "", t.errf("unterminated attribute value")
	}
	raw := t.src[start:t.pos]
	t.pos++ // closing quote
	return t.expand(raw)
}

func (t *Tokenizer) charData() (Token, error) {
	start := t.pos
	if end := strings.IndexByte(t.src[start:], '<'); end >= 0 {
		t.pos = start + end
	} else {
		t.pos = len(t.src)
	}
	raw := t.src[start:t.pos]
	if strings.Contains(raw, "]]>") {
		return Token{}, t.errf("']]>' not allowed in character data")
	}
	text, err := t.expand(raw)
	if err != nil {
		return Token{}, err
	}
	return Token{Kind: CharData, Data: text}, nil
}

// delimited consumes an opening delimiter of open bytes and the body up to
// the closing delimiter, for comments, CDATA sections and PIs.
func (t *Tokenizer) delimited(open int, closer, what string) (string, error) {
	t.pos += open
	end := strings.Index(t.src[t.pos:], closer)
	if end < 0 {
		return "", t.errf("unterminated %s", what)
	}
	return t.src[t.pos : t.pos+end], nil
}

func (t *Tokenizer) comment() (Token, error) {
	data, err := t.delimited(4, "-->", "comment")
	if err != nil {
		return Token{}, err
	}
	if strings.Contains(data, "--") {
		return Token{}, t.errf("'--' not allowed inside comment")
	}
	t.pos += len(data) + 3
	return Token{Kind: CommentToken, Data: data}, nil
}

func (t *Tokenizer) cdata() (Token, error) {
	data, err := t.delimited(9, "]]>", "CDATA section")
	if err != nil {
		return Token{}, err
	}
	t.pos += len(data) + 3
	return Token{Kind: CharData, Data: data, CDATA: true}, nil
}

func (t *Tokenizer) procInst() (Token, error) {
	t.pos += 2
	target, ok := t.name()
	if !ok {
		return Token{}, t.errf("expected name")
	}
	data, err := t.delimited(0, "?>", "processing instruction")
	if err != nil {
		return Token{}, err
	}
	t.pos += len(data) + 2
	return Token{Kind: ProcInstToken, Name: Name{Local: target}, Data: strings.TrimLeft(data, " \t\r\n")}, nil
}

// skipDoctype consumes a DOCTYPE declaration, balancing an optional internal
// subset in square brackets. The content is not interpreted: xml2wire uses
// XML Schema, not DTDs (the paper discusses why DTDs are insufficient).
func (t *Tokenizer) skipDoctype() error {
	t.pos += len("<!DOCTYPE")
	for depth := 0; t.pos < len(t.src); {
		c := t.src[t.pos]
		t.pos++
		switch {
		case c == '[':
			depth++
		case c == ']' && depth == 0:
			return t.errf("unbalanced ']' in DOCTYPE")
		case c == ']':
			depth--
		case c == '>' && depth == 0:
			return nil
		}
	}
	return t.errf("unterminated DOCTYPE")
}

var predefined = map[string]byte{"amp": '&', "lt": '<', "gt": '>', "apos": '\'', "quot": '"'}

// expand replaces entity and character references in raw character data or
// attribute text.
func (t *Tokenizer) expand(raw string) (string, error) {
	if strings.IndexByte(raw, '&') < 0 {
		return raw, nil
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '&' {
			sb.WriteByte(c)
			i++
			continue
		}
		end := strings.IndexByte(raw[i:], ';')
		if end < 0 {
			return "", t.errf("unterminated entity reference")
		}
		ref := raw[i+1 : i+end]
		i += end + 1
		switch {
		case predefined[ref] != 0:
			sb.WriteByte(predefined[ref])
		case strings.HasPrefix(ref, "#"):
			digits, base := ref[1:], 10
			if strings.HasPrefix(digits, "x") || strings.HasPrefix(digits, "X") {
				digits, base = digits[1:], 16
			}
			n, err := strconv.ParseUint(digits, base, 32)
			if err != nil || !utf8.ValidRune(rune(n)) {
				return "", t.errf("invalid character reference &%s;", ref)
			}
			sb.WriteRune(rune(n))
		default:
			return "", t.errf("unknown entity &%s;", ref)
		}
	}
	return sb.String(), nil
}
