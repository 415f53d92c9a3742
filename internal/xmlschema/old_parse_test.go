package xmlschema

// TEMPORARY: the DOM walk this package had before the streaming parser, kept
// only for the differential run in diff_test.go.

import (
	"fmt"
	"strconv"
	"strings"

	"openmeta/internal/xmltext"
)

// oldFromDocument validates and converts an already-parsed XML document.
func oldFromDocument(doc *xmltext.Document) (*Schema, error) {
	root := doc.Root
	if root == nil || root.Name.Local != "schema" || !IsSchemaNamespace(root.Name.Space) {
		got := "<nil>"
		if root != nil {
			got = fmt.Sprintf("<%s> in namespace %q", root.Name, root.Name.Space)
		}
		return nil, fmt.Errorf("%w: got %s", ErrNotSchema, got)
	}
	s := &Schema{
		byName:       make(map[string]*ComplexType),
		simpleByName: make(map[string]*SimpleType),
	}
	s.TargetNamespace, _ = root.Attr("targetNamespace")
	for _, child := range root.Elements() {
		switch child.Name.Local {
		case "annotation":
			s.Doc = oldDocumentation(child)
		case "simpleType":
			st, err := oldParseSimpleType(child, s)
			if err != nil {
				return nil, err
			}
			if _, dup := s.simpleByName[st.Name]; dup {
				return nil, fmt.Errorf("%w: %q", ErrDuplicateType, st.Name)
			}
			if _, dup := s.byName[st.Name]; dup {
				return nil, fmt.Errorf("%w: %q", ErrDuplicateType, st.Name)
			}
			s.SimpleTypes = append(s.SimpleTypes, st)
			s.simpleByName[st.Name] = st
		case "complexType":
			ct, err := oldParseComplexType(child, s)
			if err != nil {
				return nil, err
			}
			if _, dup := s.byName[ct.Name]; dup {
				return nil, fmt.Errorf("%w: %q", ErrDuplicateType, ct.Name)
			}
			if _, dup := s.simpleByName[ct.Name]; dup {
				return nil, fmt.Errorf("%w: %q", ErrDuplicateType, ct.Name)
			}
			s.Types = append(s.Types, ct)
			s.byName[ct.Name] = ct
		default:
			// Unknown schema constructs (simpleType, import, ...) are
			// outside the supported subset; reject loudly rather than
			// silently producing a wrong wire format.
			return nil, fmt.Errorf("xmlschema: line %d: unsupported schema construct <%s>",
				child.Line, child.Name.Local)
		}
	}
	if len(s.Types) == 0 {
		return nil, ErrNoTypes
	}
	return s, nil
}

func oldDocumentation(annotation *xmltext.Element) string {
	if d, ok := annotation.First("documentation"); ok {
		return strings.TrimSpace(d.TextContent())
	}
	return ""
}

func oldParseComplexType(el *xmltext.Element, s *Schema) (*ComplexType, error) {
	name, ok := el.Attr("name")
	if !ok || name == "" {
		return nil, fmt.Errorf("xmlschema: line %d: complexType missing name attribute", el.Line)
	}
	ct := &ComplexType{Name: name}
	seen := make(map[string]int) // element name -> index in ct.Elements

	var walk func(parent *xmltext.Element) error
	walk = func(parent *xmltext.Element) error {
		for _, child := range parent.Elements() {
			switch child.Name.Local {
			case "annotation":
				ct.Doc = oldDocumentation(child)
			case "sequence", "all":
				// 2001-style content model wrappers are transparent: the
				// paper's documents put elements directly under complexType.
				if err := walk(child); err != nil {
					return err
				}
			case "element":
				e, err := oldParseElement(child, name, s)
				if err != nil {
					return err
				}
				if _, dup := seen[e.Name]; dup {
					return fmt.Errorf("%w: %q in type %q", ErrDuplicateElement, e.Name, name)
				}
				seen[e.Name] = len(ct.Elements)
				ct.Elements = append(ct.Elements, e)
			default:
				return fmt.Errorf("xmlschema: line %d: unsupported construct <%s> in complexType %q",
					child.Line, child.Name.Local, name)
			}
		}
		return nil
	}
	if err := walk(el); err != nil {
		return nil, err
	}
	if len(ct.Elements) == 0 {
		return nil, fmt.Errorf("xmlschema: complexType %q has no elements", name)
	}
	if err := oldResolveCounts(ct); err != nil {
		return nil, err
	}
	return ct, nil
}

func oldParseElement(el *xmltext.Element, typeName string, s *Schema) (Element, error) {
	var e Element
	name, ok := el.Attr("name")
	if !ok || name == "" {
		return e, fmt.Errorf("xmlschema: line %d: element in type %q missing name attribute",
			el.Line, typeName)
	}
	e.Name = name

	typeAttr, ok := el.Attr("type")
	if !ok || typeAttr == "" {
		return e, fmt.Errorf("xmlschema: line %d: element %q missing type attribute", el.Line, name)
	}
	ref, err := resolveTypeRef(typeAttr, s)
	if err != nil {
		return e, fmt.Errorf("element %q: %w", name, err)
	}
	e.Type = ref

	if minStr, ok := el.Attr("minOccurs"); ok {
		n, err := strconv.Atoi(minStr)
		if err != nil || n < 0 {
			return e, fmt.Errorf("%w: element %q minOccurs=%q", ErrBadOccurs, name, minStr)
		}
		e.MinOccurs = n
	} else {
		e.MinOccurs = 1
	}

	maxStr, ok := el.Attr("maxOccurs")
	if !ok {
		e.Array = NoArray
		return e, nil
	}
	switch {
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
		if n == 1 {
			e.Array = NoArray
		} else {
			e.Array = StaticArray
			e.Size = n
		}
	default:
		// A string value names an integer element holding the run-time size.
		e.Array = CountedArray
		e.CountField = maxStr
	}
	return e, nil
}

// oldParseSimpleType handles <xsd:simpleType name="..."> with a restriction or
// extension of a primitive (or of an earlier simple type, which chains to
// its primitive). Facets relevant to message tooling are retained.
func oldParseSimpleType(el *xmltext.Element, s *Schema) (*SimpleType, error) {
	name, ok := el.Attr("name")
	if !ok || name == "" {
		return nil, fmt.Errorf("xmlschema: line %d: simpleType missing name attribute", el.Line)
	}
	st := &SimpleType{Name: name, MaxLength: -1}
	var deriv *xmltext.Element
	for _, child := range el.Elements() {
		switch child.Name.Local {
		case "annotation":
			st.Doc = oldDocumentation(child)
		case "restriction", "extension":
			if deriv != nil {
				return nil, fmt.Errorf("xmlschema: simpleType %q has multiple derivations", name)
			}
			deriv = child
		default:
			return nil, fmt.Errorf("xmlschema: line %d: unsupported construct <%s> in simpleType %q",
				child.Line, child.Name.Local, name)
		}
	}
	if deriv == nil {
		return nil, fmt.Errorf("xmlschema: simpleType %q has no restriction or extension", name)
	}
	baseAttr, ok := deriv.Attr("base")
	if !ok || baseAttr == "" {
		return nil, fmt.Errorf("xmlschema: simpleType %q: %s missing base attribute",
			name, deriv.Name.Local)
	}
	baseLocal := baseAttr
	if i := strings.IndexByte(baseAttr, ':'); i >= 0 {
		baseLocal = baseAttr[i+1:]
	}
	if p, ok := PrimitiveByName(baseLocal); ok {
		st.Base = p
	} else if prev, ok := s.simpleByName[baseLocal]; ok {
		st.Base = prev.Base
	} else {
		return nil, fmt.Errorf("%w: simpleType %q base %q", ErrUnknownType, name, baseAttr)
	}
	for _, facet := range deriv.Elements() {
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
				return nil, fmt.Errorf("xmlschema: simpleType %q: bad maxLength %q", name, val)
			}
			st.MaxLength = n
		case "annotation", "pattern", "minLength", "length", "whiteSpace",
			"minExclusive", "maxExclusive", "totalDigits", "fractionDigits":
			// Accepted but not interpreted: they do not affect the wire.
		default:
			return nil, fmt.Errorf("xmlschema: simpleType %q: unsupported facet <%s>",
				name, facet.Name.Local)
		}
	}
	return st, nil
}

// oldResolveCounts validates counted arrays (their count field must be a scalar
// integer element of the same type) and checks that synthesized dynamic
// count names do not collide with declared elements of the wrong shape.
func oldResolveCounts(ct *ComplexType) error {
	byName := make(map[string]*Element, len(ct.Elements))
	for i := range ct.Elements {
		byName[ct.Elements[i].Name] = &ct.Elements[i]
	}
	for i := range ct.Elements {
		e := &ct.Elements[i]
		switch e.Array {
		case CountedArray:
			cf, ok := byName[e.CountField]
			if !ok {
				return fmt.Errorf("%w: element %q sized by missing element %q",
					ErrBadCountField, e.Name, e.CountField)
			}
			if err := checkCountElement(cf); err != nil {
				return fmt.Errorf("element %q: %w", e.Name, err)
			}
		case DynamicArray:
			if cf, ok := byName[e.CountField]; ok {
				// A declared element with the synthesized name is allowed
				// only if it is itself a valid count field (Appendix A's
				// PBIO metadata declares eta_count explicitly).
				if err := checkCountElement(cf); err != nil {
					return fmt.Errorf("element %q: %w", e.Name, err)
				}
			}
		}
	}
	return nil
}
