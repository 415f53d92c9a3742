package pbio

import (
	"errors"
	"fmt"
)

// ErrEmptySubset reports a subset selection that keeps no fields.
var ErrEmptySubset = errors.New("pbio: subset keeps no fields")

// DeriveSubset builds a new format containing only the named fields of f
// (plus the count fields any kept dynamic arrays need), re-laid-out
// compactly for f's architecture. The derived format is what the paper's
// §4.4 calls a "slice" of an information stream: a broker can expose it to
// a subscriber instead of the full format, converting records with a
// compiled plan, so hidden fields never reach that subscriber.
//
// Field order follows the original format. The derived format's name is
// "<name>#<field,field,...>" so different slices of one format stay
// distinguishable in catalogs. A selection that names a field twice is
// rejected: it would mint another name for the same slice.
func DeriveSubset(f *Format, fields []string) (*Format, error) {
	keep := make(map[string]bool, len(fields))
	named := make(map[string]bool, len(fields))
	for _, name := range fields {
		fl, ok := f.FieldByName(name)
		if !ok {
			return nil, fmt.Errorf("pbio: subset: format %q has no field %q", f.Name, name)
		}
		if named[name] {
			return nil, fmt.Errorf("pbio: subset: field %q named twice", name)
		}
		named[name] = true
		keep[name] = true
		if fl.Dynamic {
			keep[fl.CountField] = true
		}
	}
	if len(keep) == 0 {
		return nil, ErrEmptySubset
	}

	sub := &Format{
		Name:   subsetName(f.Name, fields),
		Arch:   f.Arch,
		Fields: make([]Field, 0, len(keep)),
		byName: make(map[string]int, len(keep)),
		Align:  1,
	}
	offset := 0
	for i := range f.Fields {
		src := &f.Fields[i]
		if !keep[src.Name] {
			continue
		}
		fl := *src // copies Kind/ElemSize/Count/Dynamic/CountField/Nested
		fl.isCount = false
		align := fieldAlign(f.Arch, &fl)
		offset = alignUp(offset, align)
		fl.Offset = offset
		offset += fl.Slot
		if align > sub.Align {
			sub.Align = align
		}
		sub.byName[fl.Name] = len(sub.Fields)
		sub.Fields = append(sub.Fields, fl)
	}
	sub.Size = alignUp(offset, sub.Align)
	for i := range sub.Fields {
		if fl := &sub.Fields[i]; fl.Dynamic {
			sub.Fields[sub.byName[fl.CountField]].isCount = true
		}
	}
	if err := checkMetaWidths(sub); err != nil {
		return nil, err
	}
	sub.ID = computeID(sub)
	return sub, nil
}

func subsetName(base string, fields []string) string {
	name := base + "#"
	for i, f := range fields {
		if i > 0 {
			name += ","
		}
		name += f
	}
	return name
}
