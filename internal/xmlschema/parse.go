package xmlschema

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"openmeta/internal/xmltext"
)

// ParseString parses a schema document held in memory, in one pass over its
// tokens. A document that is not well-formed is reported as that, whatever
// the schema reading found before the flaw.
func ParseString(src string) (*Schema, error) {
	p := parser{tok: xmltext.NewTokenizer(src), elems: make([]Element, 0, 16), index: make(map[string]int, 16)}
	s, err := p.schema()
	for {
		_, rest := p.tok.Next()
		if rest == io.EOF {
			return s, err
		}
		if rest != nil {
			return nil, rest
		}
	}
}

// parser builds a Schema from the token stream. Attribute values are read
// off a start tag before the next token is asked for: the tokenizer reuses
// the attribute list.
type parser struct {
	tok *xmltext.Tokenizer
	s   *Schema
	// elems and index hold the elements of the complexType being read and
	// their positions by name; the duplicate check and the count-field
	// lookup share the one map. Sized for a typical format, grown by a large.
	elems []Element
	index map[string]int
}

// children calls visit with each child start tag of the element whose start
// tag was just read, through that element's end tag. visit consumes the
// child, by children or by skip.
func (p *parser) children(visit func(tok xmltext.Token) error) error {
	for {
		tok, err := p.tok.Next()
		switch {
		case err != nil:
			return err
		case tok.Kind == xmltext.EndTag:
			return nil
		case tok.Kind == xmltext.StartTag:
			if err := visit(tok); err != nil {
				return err
			}
		}
	}
}

// text consumes the element whose start tag was just read, appending the
// character data at any depth inside it to into if that is non-nil.
func (p *parser) text(into *string) error {
	for depth := 1; depth > 0; {
		tok, err := p.tok.Next()
		switch {
		case err != nil:
			return err
		case tok.Kind == xmltext.StartTag:
			depth++
		case tok.Kind == xmltext.EndTag:
			depth--
		case tok.Kind == xmltext.CharData && into != nil:
			*into += tok.Data
		}
	}
	return nil
}

func (p *parser) line(tok xmltext.Token) int {
	line, _ := p.tok.Position(tok.Offset)
	return line
}

func (p *parser) schema() (*Schema, error) {
	var root xmltext.Token
	for root.Kind != xmltext.StartTag { // a document with no root is not well-formed
		var err error
		if root, err = p.tok.Next(); err != nil {
			return nil, err
		}
	}
	if root.Name.Local != "schema" || !IsSchemaNamespace(root.Name.Space) {
		return nil, fmt.Errorf("%w: got <%s> in namespace %q", ErrNotSchema, root.Name, root.Name.Space)
	}
	p.s = &Schema{
		byName:       make(map[string]*ComplexType),
		simpleByName: make(map[string]*SimpleType),
	}
	p.s.TargetNamespace, _ = root.Attr("targetNamespace")
	err := p.children(func(tok xmltext.Token) error {
		switch tok.Name.Local {
		case "annotation":
			return p.annotation(&p.s.Doc)
		case "simpleType":
			return p.simpleType(tok)
		case "complexType":
			return p.complexType(tok)
		}
		// Unknown schema constructs (import, attribute, ...) are outside the
		// supported subset; reject loudly rather than silently producing a
		// wrong wire format.
		return fmt.Errorf("xmlschema: line %d: unsupported schema construct <%s>", p.line(tok), tok.Name.Local)
	})
	if err != nil {
		return nil, err
	}
	if len(p.s.Types) == 0 {
		return nil, ErrNoTypes
	}
	return p.s, nil
}

// declare checks a type name, which simple and complex types share.
func (p *parser) declare(name string) error {
	_, simple := p.s.simpleByName[name]
	if _, complex := p.s.byName[name]; simple || complex {
		return fmt.Errorf("%w: %q", ErrDuplicateType, name)
	}
	return nil
}

// annotation reads an annotation element and sets doc to the trimmed text
// of its first documentation child.
func (p *parser) annotation(doc *string) error {
	text, found := "", false
	err := p.children(func(tok xmltext.Token) error {
		if found || tok.Name.Local != "documentation" {
			return p.text(nil)
		}
		found = true
		return p.text(&text)
	})
	*doc = strings.TrimSpace(text)
	return err
}

func (p *parser) complexType(tok xmltext.Token) error {
	name, ok := tok.Attr("name")
	if !ok || name == "" {
		return fmt.Errorf("xmlschema: line %d: complexType missing name attribute", p.line(tok))
	}
	ct := &ComplexType{Name: name}
	p.elems = p.elems[:0]
	clear(p.index)
	if err := p.content(ct); err != nil {
		return err
	}
	if len(p.elems) == 0 {
		return fmt.Errorf("xmlschema: complexType %q has no elements", name)
	}
	ct.Elements = append([]Element(nil), p.elems...)
	if err := resolveCounts(ct, p.index); err != nil {
		return err
	}
	if err := p.declare(name); err != nil {
		return err
	}
	p.s.Types = append(p.s.Types, ct)
	p.s.byName[name] = ct
	return nil
}

// content reads the children of a complexType, or of a sequence or all
// inside one: 2001-style content model wrappers are transparent, the
// paper's documents put elements directly under complexType.
func (p *parser) content(ct *ComplexType) error {
	return p.children(func(tok xmltext.Token) error {
		switch tok.Name.Local {
		case "annotation":
			return p.annotation(&ct.Doc)
		case "sequence", "all":
			return p.content(ct)
		case "element":
			e, err := p.element(tok, ct.Name)
			if err != nil {
				return err
			}
			if _, dup := p.index[e.Name]; dup {
				return fmt.Errorf("%w: %q in type %q", ErrDuplicateElement, e.Name, ct.Name)
			}
			p.index[e.Name] = len(p.elems)
			p.elems = append(p.elems, e)
			return p.text(nil)
		}
		return fmt.Errorf("xmlschema: line %d: unsupported construct <%s> in complexType %q",
			p.line(tok), tok.Name.Local, ct.Name)
	})
}

func (p *parser) element(tok xmltext.Token, typeName string) (Element, error) {
	var e Element
	name, ok := tok.Attr("name")
	if !ok || name == "" {
		return e, fmt.Errorf("xmlschema: line %d: element in type %q missing name attribute",
			p.line(tok), typeName)
	}
	e.Name = name

	typeAttr, ok := tok.Attr("type")
	if !ok || typeAttr == "" {
		return e, fmt.Errorf("xmlschema: line %d: element %q missing type attribute", p.line(tok), name)
	}
	ref, err := resolveTypeRef(typeAttr, p.s)
	if err != nil {
		return e, fmt.Errorf("element %q: %w", name, err)
	}
	e.Type = ref

	if minStr, ok := tok.Attr("minOccurs"); ok {
		n, err := strconv.Atoi(minStr)
		if err != nil || n < 0 {
			return e, fmt.Errorf("%w: element %q minOccurs=%q", ErrBadOccurs, name, minStr)
		}
		e.MinOccurs = n
	} else {
		e.MinOccurs = 1
	}

	maxStr, ok := tok.Attr("maxOccurs")
	switch {
	case !ok: // a single value
	case maxStr == "*" || maxStr == "unbounded":
		// Dynamically allocated array; length travels in a synthesized
		// integer field (the eta / eta_count pattern of Appendix A).
		e.Array = DynamicArray
		e.CountField = name + "_count"
	case isNumeric(maxStr):
		n, err := strconv.Atoi(maxStr)
		if err != nil || n < 1 {
			return e, fmt.Errorf("%w: element %q maxOccurs=%q", ErrBadOccurs, name, maxStr)
		}
		if n > 1 {
			e.Array, e.Size = StaticArray, n
		}
	default:
		// A string value names an integer element holding the run-time size.
		e.Array = CountedArray
		e.CountField = maxStr
	}
	return e, nil
}

// resolveTypeRef maps a type attribute value to a TypeRef. Prefixed names
// whose prefix text suggests the xsd namespace, and bare names matching a
// primitive, resolve to primitives; anything else must name a complexType
// already defined in the schema (forward references are rejected because the
// Catalog must know a type's size before it can be embedded).
func resolveTypeRef(attr string, s *Schema) (TypeRef, error) {
	prefix, local := "", attr
	if i := strings.IndexByte(attr, ':'); i >= 0 {
		prefix, local = attr[:i], attr[i+1:]
	}
	if prefix != "" {
		// Attribute values are not namespace-resolved by XML itself; the
		// convention (followed by the paper's documents) is that the xsd
		// prefix marks schema primitives. Accept any prefix for a name that
		// only exists as a primitive.
		if p, ok := PrimitiveByName(local); ok {
			return TypeRef{Primitive: p}, nil
		}
		return TypeRef{}, fmt.Errorf("%w: %q", ErrUnknownType, attr)
	}
	if _, ok := s.byName[local]; ok {
		return TypeRef{Named: local}, nil
	}
	if st, ok := s.simpleByName[local]; ok {
		// A user-defined simple type is its base primitive on the wire
		// (footnote 1 of the paper's §4.1.1).
		return TypeRef{Primitive: st.Base, Simple: st.Name}, nil
	}
	if p, ok := PrimitiveByName(local); ok {
		return TypeRef{Primitive: p}, nil
	}
	return TypeRef{}, fmt.Errorf("%w: %q (user types must be defined earlier in the document)",
		ErrUnknownType, attr)
}

// simpleType handles <xsd:simpleType name="..."> with a restriction or
// extension of a primitive (or of an earlier simple type, which chains to
// its primitive). Facets relevant to message tooling are retained. What is
// wrong with the derivation is reported only once the simpleType's other
// children have been checked.
func (p *parser) simpleType(tok xmltext.Token) error {
	name, ok := tok.Attr("name")
	if !ok || name == "" {
		return fmt.Errorf("xmlschema: line %d: simpleType missing name attribute", p.line(tok))
	}
	st := &SimpleType{Name: name, MaxLength: -1}
	derived := false
	var invalid error
	err := p.children(func(tok xmltext.Token) (err error) {
		switch tok.Name.Local {
		case "annotation":
			return p.annotation(&st.Doc)
		case "restriction", "extension":
			if derived {
				return fmt.Errorf("xmlschema: simpleType %q has multiple derivations", name)
			}
			derived = true
			invalid, err = p.derivation(tok, st)
			return err
		}
		return fmt.Errorf("xmlschema: line %d: unsupported construct <%s> in simpleType %q",
			p.line(tok), tok.Name.Local, name)
	})
	switch {
	case err != nil:
		return err
	case !derived:
		return fmt.Errorf("xmlschema: simpleType %q has no restriction or extension", name)
	case invalid != nil:
		return invalid
	}
	if err := p.declare(name); err != nil {
		return err
	}
	p.s.SimpleTypes = append(p.s.SimpleTypes, st)
	p.s.simpleByName[name] = st
	return nil
}

// derivation reads a restriction or extension into st. invalid is what the
// schema got wrong, err what the document did.
func (p *parser) derivation(tok xmltext.Token, st *SimpleType) (invalid, err error) {
	baseAttr, ok := tok.Attr("base")
	baseLocal := baseAttr
	if i := strings.IndexByte(baseAttr, ':'); i >= 0 {
		baseLocal = baseAttr[i+1:]
	}
	if !ok || baseAttr == "" {
		invalid = fmt.Errorf("xmlschema: simpleType %q: %s missing base attribute", st.Name, tok.Name.Local)
	} else if prim, ok := PrimitiveByName(baseLocal); ok {
		st.Base = prim
	} else if prev, ok := p.s.simpleByName[baseLocal]; ok {
		st.Base = prev.Base
	} else {
		invalid = fmt.Errorf("%w: simpleType %q base %q", ErrUnknownType, st.Name, baseAttr)
	}
	err = p.children(func(facet xmltext.Token) error {
		if invalid == nil {
			invalid = applyFacet(st, facet)
		}
		return p.text(nil)
	})
	return invalid, err
}

func applyFacet(st *SimpleType, facet xmltext.Token) error {
	val, _ := facet.Attr("value")
	switch facet.Name.Local {
	case "enumeration":
		st.Enumeration = append(st.Enumeration, val)
	case "minInclusive":
		st.MinInclusive = val
	case "maxInclusive":
		st.MaxInclusive = val
	case "maxLength":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("xmlschema: simpleType %q: bad maxLength %q", st.Name, val)
		}
		st.MaxLength = n
	case "annotation", "pattern", "minLength", "length", "whiteSpace",
		"minExclusive", "maxExclusive", "totalDigits", "fractionDigits":
		// Accepted but not interpreted: they do not affect the wire.
	default:
		return fmt.Errorf("xmlschema: simpleType %q: unsupported facet <%s>", st.Name, facet.Name.Local)
	}
	return nil
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// resolveCounts validates counted arrays (their count field must be a scalar
// integer element of the same type) and checks that synthesized dynamic
// count names do not collide with declared elements of the wrong shape.
// index maps each element's name to its position.
func resolveCounts(ct *ComplexType, index map[string]int) error {
	for i := range ct.Elements {
		e := &ct.Elements[i]
		ci, ok := index[e.CountField]
		switch {
		case e.Array == CountedArray && !ok:
			return fmt.Errorf("%w: element %q sized by missing element %q",
				ErrBadCountField, e.Name, e.CountField)
		case e.Array == CountedArray || (e.Array == DynamicArray && ok):
			// A declared element with a dynamic array's synthesized name is
			// allowed only if it is itself a valid count field (Appendix
			// A's PBIO metadata declares eta_count explicitly).
			if err := checkCountElement(&ct.Elements[ci]); err != nil {
				return fmt.Errorf("element %q: %w", e.Name, err)
			}
		}
	}
	return nil
}

func checkCountElement(cf *Element) error {
	if cf.Array != NoArray {
		return fmt.Errorf("%w: count element %q is an array", ErrBadCountField, cf.Name)
	}
	if !cf.Type.IsPrimitive() || !isIntegerPrimitive(cf.Type.Primitive) {
		return fmt.Errorf("%w: count element %q must be an integer type, got %s",
			ErrBadCountField, cf.Name, cf.Type)
	}
	return nil
}

func isIntegerPrimitive(p Primitive) bool {
	switch p {
	case Byte, UnsignedByte, Short, UnsignedShort, Int, Integer, UnsignedInt, Long, UnsignedLong:
		return true
	default:
		return false
	}
}
