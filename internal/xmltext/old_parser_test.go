package xmltext

// TEMPORARY: the recursive-descent oldParser this package had before the pull
// tokenizer, kept only for the differential run in diff_test.go.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// oldScanner is a position-tracking cursor over the raw document bytes.
type oldScanner struct {
	src  string
	pos  int
	line int
	col  int
}

func newOldScanner(src string) *oldScanner {
	return &oldScanner{src: src, line: 1, col: 1}
}

func (s *oldScanner) eof() bool { return s.pos >= len(s.src) }

// peek returns the current byte without consuming it, or 0 at EOF.
func (s *oldScanner) peek() byte {
	if s.eof() {
		return 0
	}
	return s.src[s.pos]
}

// peekAt returns the byte at offset n from the cursor, or 0 past EOF.
func (s *oldScanner) peekAt(n int) byte {
	if s.pos+n >= len(s.src) {
		return 0
	}
	return s.src[s.pos+n]
}

// next consumes and returns one byte.
func (s *oldScanner) next() byte {
	c := s.src[s.pos]
	s.pos++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

// hasPrefix reports whether the remaining input starts with p.
func (s *oldScanner) hasPrefix(p string) bool {
	return strings.HasPrefix(s.src[s.pos:], p)
}

// skip consumes n bytes (which the caller has already inspected).
func (s *oldScanner) skip(n int) {
	for i := 0; i < n && !s.eof(); i++ {
		s.next()
	}
}

// skipSpace consumes XML whitespace (space, tab, CR, LF).
func (s *oldScanner) skipSpace() {
	for !s.eof() {
		switch s.peek() {
		case ' ', '\t', '\r', '\n':
			s.next()
		default:
			return
		}
	}
}

func (s *oldScanner) errf(format string, args ...interface{}) *SyntaxError {
	return &SyntaxError{Line: s.line, Col: s.col, Msg: fmt.Sprintf(format, args...)}
}

// readName consumes an XML name and returns it.
func (s *oldScanner) readName() (string, error) {
	if s.eof() || !isNameStart(s.peek()) {
		return "", s.errf("expected name")
	}
	start := s.pos
	for !s.eof() && isNameChar(s.peek()) {
		s.next()
	}
	return s.src[start:s.pos], nil
}

// expandEntities replaces entity and character references in raw character
// data or attribute text.
func (s *oldScanner) expandEntities(raw string) (string, error) {
	if !strings.ContainsRune(raw, '&') {
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
			return "", s.errf("unterminated entity reference")
		}
		ref := raw[i+1 : i+end]
		i += end + 1
		switch {
		case ref == "amp":
			sb.WriteByte('&')
		case ref == "lt":
			sb.WriteByte('<')
		case ref == "gt":
			sb.WriteByte('>')
		case ref == "apos":
			sb.WriteByte('\'')
		case ref == "quot":
			sb.WriteByte('"')
		case strings.HasPrefix(ref, "#x") || strings.HasPrefix(ref, "#X"):
			n, err := strconv.ParseUint(ref[2:], 16, 32)
			if err != nil || !utf8.ValidRune(rune(n)) {
				return "", s.errf("invalid character reference &%s;", ref)
			}
			sb.WriteRune(rune(n))
		case strings.HasPrefix(ref, "#"):
			n, err := strconv.ParseUint(ref[1:], 10, 32)
			if err != nil || !utf8.ValidRune(rune(n)) {
				return "", s.errf("invalid character reference &%s;", ref)
			}
			sb.WriteRune(rune(n))
		default:
			return "", s.errf("unknown entity &%s;", ref)
		}
	}
	return sb.String(), nil
}

// ParseString parses a document held in memory.
func oldParseString(src string) (*Document, error) {
	p := &oldParser{oldScanner: newOldScanner(src)}
	p.pushScope() // document-level scope with the implicit xml prefix
	p.bind("xml", XMLNamespace)
	doc := &Document{}

	// Prolog: misc before the root element.
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("no root element")
		}
		if p.peek() != '<' {
			return nil, p.errf("character data outside root element")
		}
		switch {
		case p.hasPrefix("<?"):
			pi, err := p.parseProcInst()
			if err != nil {
				return nil, err
			}
			doc.Prolog = append(doc.Prolog, pi)
		case p.hasPrefix("<!--"):
			c, err := p.parseComment()
			if err != nil {
				return nil, err
			}
			doc.Prolog = append(doc.Prolog, c)
		case p.hasPrefix("<!DOCTYPE"):
			if err := p.skipDoctype(); err != nil {
				return nil, err
			}
		default:
			root, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			doc.Root = root
			// Trailing misc.
			for {
				p.skipSpace()
				if p.eof() {
					return doc, nil
				}
				switch {
				case p.hasPrefix("<?"):
					if _, err := p.parseProcInst(); err != nil {
						return nil, err
					}
				case p.hasPrefix("<!--"):
					if _, err := p.parseComment(); err != nil {
						return nil, err
					}
				default:
					return nil, p.errf("content after root element")
				}
			}
		}
	}
}

type oldNsScope map[string]string

type oldParser struct {
	*oldScanner
	scopes []oldNsScope
}

func (p *oldParser) pushScope() { p.scopes = append(p.scopes, oldNsScope{}) }
func (p *oldParser) popScope()  { p.scopes = p.scopes[:len(p.scopes)-1] }

func (p *oldParser) bind(prefix, uri string) {
	p.scopes[len(p.scopes)-1][prefix] = uri
}

// lookup resolves a namespace prefix ("" for the default namespace).
func (p *oldParser) lookup(prefix string) (string, bool) {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if uri, ok := p.scopes[i][prefix]; ok {
			return uri, true
		}
	}
	return "", prefix == "" // default namespace defaults to none
}

// parseElement parses an element whose '<' is the current byte.
func (p *oldParser) parseElement() (*Element, error) {
	el := &Element{Line: p.line, Col: p.col}
	p.next() // consume '<'
	rawName, err := p.readName()
	if err != nil {
		return nil, err
	}

	// Attributes.
	var attrs []Attr
	selfClose := false
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("unexpected EOF in start tag <%s>", rawName)
		}
		c := p.peek()
		if c == '>' {
			p.next()
			break
		}
		if c == '/' && p.peekAt(1) == '>' {
			p.skip(2)
			selfClose = true
			break
		}
		aName, err := p.readName()
		if err != nil {
			return nil, p.errf("malformed attribute in <%s>", rawName)
		}
		p.skipSpace()
		if p.eof() || p.peek() != '=' {
			return nil, p.errf("attribute %q missing '='", aName)
		}
		p.next()
		p.skipSpace()
		val, err := p.readAttrValue()
		if err != nil {
			return nil, err
		}
		for _, a := range attrs {
			if a.Name.Prefix+":"+a.Name.Local == aName || (a.Name.Prefix == "" && a.Name.Local == aName) {
				return nil, p.errf("duplicate attribute %q in <%s>", aName, rawName)
			}
		}
		pre, loc := splitQName(aName)
		attrs = append(attrs, Attr{Name: Name{Prefix: pre, Local: loc}, Value: val})
	}

	// Namespace scope: process xmlns declarations, then resolve names.
	p.pushScope()
	defer p.popScope()
	for _, a := range attrs {
		switch {
		case a.Name.Prefix == "" && a.Name.Local == "xmlns":
			p.bind("", a.Value)
		case a.Name.Prefix == "xmlns":
			if a.Value == "" {
				return nil, p.errf("namespace prefix %q bound to empty URI", a.Name.Local)
			}
			p.bind(a.Name.Local, a.Value)
		}
	}
	for i := range attrs {
		a := &attrs[i]
		if a.Name.Prefix == "xmlns" || (a.Name.Prefix == "" && a.Name.Local == "xmlns") {
			continue // declarations stay prefix-only
		}
		if a.Name.Prefix != "" {
			uri, ok := p.lookup(a.Name.Prefix)
			if !ok {
				return nil, p.errf("undeclared namespace prefix %q", a.Name.Prefix)
			}
			a.Name.Space = uri
		}
	}
	prefix, local := splitQName(rawName)
	uri, ok := p.lookup(prefix)
	if !ok {
		return nil, p.errf("undeclared namespace prefix %q", prefix)
	}
	el.Name = Name{Space: uri, Prefix: prefix, Local: local}
	el.Attrs = attrs
	if selfClose {
		return el, nil
	}

	// Content until matching end tag.
	for {
		if p.eof() {
			return nil, p.errf("unexpected EOF: unclosed element <%s>", rawName)
		}
		if p.peek() != '<' {
			text, err := p.readCharData()
			if err != nil {
				return nil, err
			}
			if text != "" {
				el.Children = append(el.Children, &Text{Data: text})
			}
			continue
		}
		switch {
		case p.hasPrefix("</"):
			p.skip(2)
			endName, err := p.readName()
			if err != nil {
				return nil, err
			}
			if endName != rawName {
				return nil, p.errf("mismatched end tag </%s>, expected </%s>", endName, rawName)
			}
			p.skipSpace()
			if p.eof() || p.peek() != '>' {
				return nil, p.errf("malformed end tag </%s>", endName)
			}
			p.next()
			return el, nil
		case p.hasPrefix("<!--"):
			c, err := p.parseComment()
			if err != nil {
				return nil, err
			}
			el.Children = append(el.Children, c)
		case p.hasPrefix("<![CDATA["):
			t, err := p.parseCDATA()
			if err != nil {
				return nil, err
			}
			el.Children = append(el.Children, t)
		case p.hasPrefix("<?"):
			pi, err := p.parseProcInst()
			if err != nil {
				return nil, err
			}
			el.Children = append(el.Children, pi)
		default:
			child, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			el.Children = append(el.Children, child)
		}
	}
}

func (p *oldParser) readAttrValue() (string, error) {
	if p.eof() {
		return "", p.errf("unexpected EOF in attribute value")
	}
	quote := p.peek()
	if quote != '"' && quote != '\'' {
		return "", p.errf("attribute value must be quoted")
	}
	p.next()
	start := p.pos
	for !p.eof() && p.peek() != quote {
		if p.peek() == '<' {
			return "", p.errf("'<' in attribute value")
		}
		p.next()
	}
	if p.eof() {
		return "", p.errf("unterminated attribute value")
	}
	raw := p.src[start:p.pos]
	p.next() // closing quote
	return p.expandEntities(raw)
}

func (p *oldParser) readCharData() (string, error) {
	start := p.pos
	for !p.eof() && p.peek() != '<' {
		p.next()
	}
	raw := p.src[start:p.pos]
	if strings.Contains(raw, "]]>") {
		return "", p.errf("']]>' not allowed in character data")
	}
	return p.expandEntities(raw)
}

func (p *oldParser) parseComment() (*Comment, error) {
	p.skip(4) // <!--
	start := p.pos
	idx := strings.Index(p.src[p.pos:], "-->")
	if idx < 0 {
		return nil, p.errf("unterminated comment")
	}
	data := p.src[start : start+idx]
	if strings.Contains(data, "--") {
		return nil, p.errf("'--' not allowed inside comment")
	}
	p.skip(idx + 3)
	return &Comment{Data: data}, nil
}

func (p *oldParser) parseCDATA() (*Text, error) {
	p.skip(9) // <![CDATA[
	start := p.pos
	idx := strings.Index(p.src[p.pos:], "]]>")
	if idx < 0 {
		return nil, p.errf("unterminated CDATA section")
	}
	data := p.src[start : start+idx]
	p.skip(idx + 3)
	return &Text{Data: data, CDATA: true}, nil
}

func (p *oldParser) parseProcInst() (*ProcInst, error) {
	p.skip(2) // <?
	target, err := p.readName()
	if err != nil {
		return nil, err
	}
	start := p.pos
	idx := strings.Index(p.src[p.pos:], "?>")
	if idx < 0 {
		return nil, p.errf("unterminated processing instruction")
	}
	data := strings.TrimLeft(p.src[start:start+idx], " \t\r\n")
	p.skip(idx + 2)
	return &ProcInst{Target: target, Data: data}, nil
}

// skipDoctype consumes a DOCTYPE declaration, balancing an optional internal
// subset in square brackets. The content is not interpreted: xml2wire uses
// XML Schema, not DTDs (the paper discusses why DTDs are insufficient).
func (p *oldParser) skipDoctype() error {
	p.skip(len("<!DOCTYPE"))
	depth := 0
	for !p.eof() {
		switch p.next() {
		case '[':
			depth++
		case ']':
			depth--
			if depth < 0 {
				return p.errf("unbalanced ']' in DOCTYPE")
			}
		case '>':
			if depth == 0 {
				return nil
			}
		}
	}
	return p.errf("unterminated DOCTYPE")
}
