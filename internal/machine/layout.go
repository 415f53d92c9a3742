package machine

import (
	"errors"
	"fmt"
)

// Member describes one member of a record for layout purposes: a scalar, a
// static array of scalars, or a nested previously-laid-out record. Exactly
// one of Type or Record must be set.
type Member struct {
	// Name is the member name; used only for diagnostics.
	Name string
	// Type is the scalar element type (zero when Record is set).
	Type CType
	// Record is the layout of a nested record member (nil for scalars).
	Record *Layout
	// Count is the static array element count; 0 and 1 both mean a single
	// element. Dynamic arrays and strings are pointers at the language level
	// and must be declared as Type: CPointer with Count 0.
	Count int
}

// Field is the result of laying out one Member: the resolved size, alignment
// and byte offset within the record. This is the information the paper's
// Field structure carries into PBIO registration.
type Field struct {
	Name string
	// Type is the scalar element type, or 0 for a nested record.
	Type CType
	// Record is the nested record layout, or nil for scalars.
	Record *Layout
	// ElemSize is the size of one element (sizeof on the target arch).
	ElemSize int
	// Count is the static element count (>= 1).
	Count int
	// Offset is the byte offset of the field within the record, including
	// any alignment padding the compiler would insert.
	Offset int
	// Align is the alignment requirement of the field.
	Align int
}

// Size returns the total size of the field: ElemSize * Count.
func (f *Field) Size() int { return f.ElemSize * f.Count }

// Layout is the computed in-memory layout of a record on one architecture:
// field offsets including padding, overall alignment and padded total size.
// A Layout is immutable after construction.
type Layout struct {
	// Arch is the architecture the layout was computed for.
	Arch *Arch
	// Fields are the laid-out fields in declaration order.
	Fields []Field
	// Size is the padded total size (what C sizeof would report).
	Size int
	// Align is the overall alignment of the record.
	Align int
}

// ErrEmptyRecord is returned when laying out a record with no members; C
// forbids empty structs and an empty message format is always a caller bug.
var ErrEmptyRecord = errors.New("machine: record has no members")

// layOut computes the C layout of a record with the given members on
// architecture a, applying the conventional algorithm: each field is placed
// at the next offset aligned to the field's alignment; the record's own
// alignment is the maximum field alignment; the total size is padded up to a
// multiple of the record alignment (so arrays of the record tile correctly).
func layOut(a *Arch, members []Member) (*Layout, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, ErrEmptyRecord
	}
	l := &Layout{
		Arch:   a,
		Fields: make([]Field, 0, len(members)),
		Align:  1,
	}
	offset := 0
	for i, m := range members {
		f, err := resolveMember(a, i, m)
		if err != nil {
			return nil, err
		}
		offset = alignUp(offset, f.Align)
		f.Offset = offset
		offset += f.Size()
		if f.Align > l.Align {
			l.Align = f.Align
		}
		l.Fields = append(l.Fields, f)
	}
	l.Size = alignUp(offset, l.Align)
	return l, nil
}

func resolveMember(a *Arch, idx int, m Member) (Field, error) {
	count := m.Count
	if count < 0 {
		return Field{}, fmt.Errorf("machine: member %d (%q): negative count %d", idx, m.Name, m.Count)
	}
	if count == 0 {
		count = 1
	}
	switch {
	case m.Record != nil && m.Type != 0:
		return Field{}, fmt.Errorf("machine: member %d (%q): both Type and Record set", idx, m.Name)
	case m.Record != nil:
		if m.Record.Arch != a {
			return Field{}, fmt.Errorf("machine: member %d (%q): nested layout computed for %q, want %q",
				idx, m.Name, m.Record.Arch.Name, a.Name)
		}
		return Field{
			Name:     m.Name,
			Record:   m.Record,
			ElemSize: m.Record.Size,
			Count:    count,
			Align:    m.Record.Align,
		}, nil
	case m.Type != 0:
		size := a.SizeOf(m.Type)
		if size == 0 {
			return Field{}, fmt.Errorf("machine: member %d (%q): unknown C type %d", idx, m.Name, int(m.Type))
		}
		return Field{
			Name:     m.Name,
			Type:     m.Type,
			ElemSize: size,
			Count:    count,
			Align:    a.AlignOf(m.Type),
		}, nil
	default:
		return Field{}, fmt.Errorf("machine: member %d (%q): neither Type nor Record set", idx, m.Name)
	}
}

// FieldByName returns the laid-out field with the given name.
func (l *Layout) FieldByName(name string) (*Field, bool) {
	for i := range l.Fields {
		if l.Fields[i].Name == name {
			return &l.Fields[i], true
		}
	}
	return nil, false
}

func alignUp(n, align int) int {
	if align <= 1 {
		return n
	}
	rem := n % align
	if rem == 0 {
		return n
	}
	return n + align - rem
}
