package pbio

import (
	"fmt"

	"openmeta/internal/machine"
)

// FieldSpec declares a field by its C element type, leaving sizes and
// offsets to be computed for the context's architecture. This is the path
// xml2wire uses after mapping XML Schema types to C types, and the natural
// registration path for Go programs that have no C compiler to ask.
type FieldSpec struct {
	// Name is the field name.
	Name string
	// Kind selects the marshaling technique.
	Kind Kind
	// CType is the C element type for scalar kinds (ignored for String,
	// which is always char*, and for Nested).
	CType machine.CType
	// NestedName names a previously registered format for Kind == Nested.
	NestedName string
	// Count > 1 declares a static array.
	Count int
	// Dynamic declares a dynamically sized array; CountField names the
	// integer field carrying its length.
	Dynamic    bool
	CountField string
}

// RegisterSpec lays the fields out for the context's architecture exactly as
// a C compiler would — computing sizeof and offsets with padding — and
// registers the resulting format.
func (c *Context) RegisterSpec(name string, specs []FieldSpec) (*Format, error) {
	f, err := c.layOut(name, specs)
	if err != nil {
		return nil, err
	}
	return c.adopt(f, true)
}

// ResolveSpecs computes the IOField list (sizes and offsets) for the given
// specs on the context's architecture without registering anything. It is
// exposed so callers can inspect or dump the metadata the way the paper's
// figures show it.
func (c *Context) ResolveSpecs(name string, specs []FieldSpec) ([]IOField, error) {
	f, err := c.layOut(name, specs)
	if err != nil {
		return nil, err
	}
	return f.IOFields(), nil
}

// layOut builds the finished format the specs describe, laying the fields
// out as a C compiler would: each field placed at the next offset aligned
// for it, with the alignments finishFormat checks every format against.
func (c *Context) layOut(name string, specs []FieldSpec) (*Format, error) {
	f, err := c.newFormat(name, len(specs))
	if err != nil {
		return nil, err
	}
	offset := 0
	for _, s := range specs {
		fl := Field{Name: s.Name, Kind: s.Kind, Count: 1, Dynamic: s.Dynamic}
		switch {
		case s.Dynamic:
			fl.CountField = s.CountField
		case s.Count < 0:
			return nil, fmt.Errorf("pbio: format %q field %q: negative count %d", name, s.Name, s.Count)
		case s.Count > 1:
			fl.Count = s.Count
		}
		switch s.Kind {
		case String:
			if s.Dynamic {
				return nil, fmt.Errorf("pbio: format %q field %q: dynamic arrays of strings are not supported",
					name, s.Name)
			}
			fl.ElemSize = c.arch.PointerSize
		case Nested:
			nested, ok := c.Lookup(s.NestedName)
			if !ok {
				return nil, fmt.Errorf("pbio: format %q field %q: %w: %q",
					name, s.Name, ErrUnknownFormat, s.NestedName)
			}
			fl.Nested, fl.ElemSize = nested, nested.Size
		case Int, Uint, Float, Char, Bool:
			if fl.ElemSize = c.arch.SizeOf(s.CType); fl.ElemSize == 0 {
				return nil, fmt.Errorf("pbio: format %q field %q: missing C type", name, s.Name)
			}
			if !validSize(s.Kind, fl.ElemSize, c.arch.PointerSize) {
				return nil, fmt.Errorf("format %q field %q: %w: %s of size %d",
					name, s.Name, ErrBadFieldSize, s.Kind, fl.ElemSize)
			}
		default:
			return nil, fmt.Errorf("pbio: format %q field %q: invalid kind %v", name, s.Name, s.Kind)
		}
		fl.Slot = fl.ElemSize * fl.Count
		if fl.Dynamic {
			fl.Slot = c.arch.PointerSize
		}
		fl.Offset = alignUp(offset, fieldAlign(c.arch, &fl))
		offset = fl.Offset + fl.Slot
		if err := f.addField(fl); err != nil {
			return nil, err
		}
	}
	if err := finishFormat(f); err != nil {
		return nil, err
	}
	return f, nil
}
