package pbio

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"

	"openmeta/internal/machine"
)

// FormatID is the compact identifier under which a format travels on the
// wire after its metadata has been exchanged once. It is a stable 64-bit
// hash of the format's canonical metadata, so identical formats registered
// on identical architectures hash identically.
type FormatID [8]byte

// String renders the ID as hex for diagnostics.
func (id FormatID) String() string { return fmt.Sprintf("%x", id[:]) }

// Format is a registered message format: the complete recipe for moving a
// record of this shape between memory and the wire on a given architecture.
// A Format is immutable after registration.
type Format struct {
	// Name is the format name.
	Name string
	// Arch is the architecture whose layout the format describes. For
	// formats received from remote peers this carries at least the byte
	// order and pointer size of the origin machine.
	Arch *machine.Arch
	// Fields are the resolved fields in declaration order.
	Fields []Field
	// Size is the fixed-region size: what C sizeof reports for the struct.
	Size int
	// Align is the overall record alignment.
	Align int
	// ID is the wire identifier.
	ID FormatID

	byName map[string]int
	// obs carries the owning context's instruments so Encode/Decode on the
	// hot path report without a context lookup. Zero (all-nil) for formats
	// that are not adopted into a context.
	obs obsMetrics
	// facct holds this format's children of the labeled wire-accounting
	// families, resolved once at adopt time.
	facct formatMetrics
	// prog is the compiled field program Encode, Decode and Bind run, built
	// on first use (see compiled).
	prog atomic.Pointer[program]
}

// FieldByName returns the field with the given name.
func (f *Format) FieldByName(name string) (*Field, bool) {
	i, ok := f.byName[name]
	if !ok {
		return nil, false
	}
	return &f.Fields[i], true
}

// IOFields renders the format back as the paper-style IOField list, the way
// cmd/xml2wire dumps registered metadata.
func (f *Format) IOFields() []IOField {
	out := make([]IOField, len(f.Fields))
	for i := range f.Fields {
		fl := &f.Fields[i]
		out[i] = IOField{Name: fl.Name, Type: fl.TypeString(), Size: fl.ElemSize, Offset: fl.Offset}
	}
	return out
}

// Context owns a Catalog of registered formats, addressable by name and by
// format ID. It corresponds to PBIO's IOContext. A Context is safe for
// concurrent use.
type Context struct {
	arch *machine.Arch
	obs  obsMetrics

	mu      sync.RWMutex
	byName  map[string]*Format
	byID    map[FormatID]*Format
	ordered []*Format
}

// NewContext creates a Context registering formats laid out for arch. Pass
// machine.Native for the local machine. Options configure observability and
// future knobs.
func NewContext(arch *machine.Arch, opts ...ContextOption) (*Context, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	c := &Context{
		arch:   arch,
		obs:    defaultMetrics,
		byName: make(map[string]*Format),
		byID:   make(map[FormatID]*Format),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Arch returns the architecture this context lays formats out for.
func (c *Context) Arch() *machine.Arch { return c.arch }

// Lookup returns the format registered under name.
func (c *Context) Lookup(name string) (*Format, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.byName[name]
	return f, ok
}

// LookupID returns the format with the given wire ID, whether registered
// locally or adopted from a peer.
func (c *Context) LookupID(id FormatID) (*Format, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.byID[id]
	return f, ok
}

// Formats returns the registered formats in registration order.
func (c *Context) Formats() []*Format {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Format, len(c.ordered))
	copy(out, c.ordered)
	return out
}

// Register resolves and registers a format from a paper-style IOField list
// with explicit sizes and offsets (the compiled-in metadata path). The field
// list must be in declaration order. Nested type names must already be
// registered, as must count fields for dynamic arrays.
func (c *Context) Register(name string, fields []IOField) (*Format, error) {
	f, err := c.newFormat(name, len(fields))
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	for _, io := range fields {
		fl, err := c.resolveLocked(name, io)
		if err == nil {
			err = f.addField(fl)
		}
		if err != nil {
			c.mu.RUnlock()
			return nil, err
		}
	}
	c.mu.RUnlock()
	if err := finishFormat(f); err != nil {
		return nil, err
	}
	return c.adopt(f, true)
}

// newFormat starts a local format that is to hold n fields; Register and
// RegisterSpec resolve them their own way and add them with addField.
func (c *Context) newFormat(name string, n int) (*Format, error) {
	if name == "" {
		return nil, fmt.Errorf("pbio: register: empty format name")
	}
	if n == 0 {
		return nil, fmt.Errorf("pbio: register %q: no fields", name)
	}
	return &Format{
		Name:   name,
		Arch:   c.arch,
		Fields: make([]Field, 0, n),
		byName: make(map[string]int, n),
		Align:  1,
	}, nil
}

func (f *Format) addField(fl Field) error {
	if fl.Name == "" {
		return fmt.Errorf("pbio: format %q: field with empty name", f.Name)
	}
	if _, dup := f.byName[fl.Name]; dup {
		return fmt.Errorf("%w: %q in format %q", ErrDuplicateField, fl.Name, f.Name)
	}
	f.byName[fl.Name] = len(f.Fields)
	f.Fields = append(f.Fields, fl)
	return nil
}

// resolveLocked converts one IOField; caller holds at least a read lock.
func (c *Context) resolveLocked(formatName string, io IOField) (Field, error) {
	base, count, dynamic, countField, err := parseTypeString(io.Type)
	if err != nil {
		return Field{}, fmt.Errorf("format %q field %q: %w", formatName, io.Name, err)
	}
	fl := Field{
		Name:       io.Name,
		ElemSize:   io.Size,
		Count:      count,
		Dynamic:    dynamic,
		CountField: countField,
		Offset:     io.Offset,
	}
	if kind, ok := kindByName[base]; ok {
		fl.Kind = kind
	} else {
		nested, ok := c.byName[base]
		if !ok {
			return Field{}, fmt.Errorf("format %q field %q: %w: %q",
				formatName, io.Name, ErrUnknownFormat, base)
		}
		fl.Kind = Nested
		fl.Nested = nested
		if io.Size != nested.Size {
			return Field{}, fmt.Errorf("format %q field %q: %w: size %d, nested format %q has size %d",
				formatName, io.Name, ErrBadFieldSize, io.Size, base, nested.Size)
		}
	}
	if fl.Kind == String && fl.Dynamic {
		return Field{}, fmt.Errorf("pbio: format %q field %q: dynamic arrays of strings are not supported",
			formatName, io.Name)
	}
	if fl.Kind != Nested && !validSize(fl.Kind, io.Size, c.arch.PointerSize) {
		return Field{}, fmt.Errorf("format %q field %q: %w: %s of size %d",
			formatName, io.Name, ErrBadFieldSize, fl.Kind, io.Size)
	}
	if fl.Dynamic {
		fl.Slot = c.arch.PointerSize
	} else {
		fl.Slot = fl.ElemSize * fl.Count
	}
	return fl, nil
}

// finishFormat validates the layout (ordering, overlap, alignment) and the
// widths metadata gives it, fills in Size/Align and computes the format ID.
func finishFormat(f *Format) error {
	sorted := make([]*Field, len(f.Fields))
	for i := range f.Fields {
		sorted[i] = &f.Fields[i]
	}
	slices.SortStableFunc(sorted, func(a, b *Field) int { return cmp.Compare(a.Offset, b.Offset) })
	end := 0
	for _, fl := range sorted {
		if fl.Offset < 0 {
			return fmt.Errorf("pbio: format %q field %q: negative offset", f.Name, fl.Name)
		}
		if fl.Offset < end {
			return fmt.Errorf("%w: format %q field %q at offset %d overlaps previous field",
				ErrFieldOverlap, f.Name, fl.Name, fl.Offset)
		}
		align := fieldAlign(f.Arch, fl)
		if fl.Offset%align != 0 {
			return fmt.Errorf("%w: format %q field %q at offset %d requires alignment %d",
				ErrFieldOverlap, f.Name, fl.Name, fl.Offset, align)
		}
		if align > f.Align {
			f.Align = align
		}
		end = fl.Offset + fl.Slot
	}
	f.Size = alignUp(end, f.Align)

	// Count fields must exist and be scalar integers.
	for i := range f.Fields {
		fl := &f.Fields[i]
		if !fl.Dynamic {
			continue
		}
		ci, ok := f.byName[fl.CountField]
		if !ok {
			return fmt.Errorf("%w: format %q field %q sized by missing field %q",
				ErrBadCountField, f.Name, fl.Name, fl.CountField)
		}
		cf := &f.Fields[ci]
		if (cf.Kind != Int && cf.Kind != Uint) || cf.Count != 1 || cf.Dynamic {
			return fmt.Errorf("%w: format %q field %q is not a scalar integer",
				ErrBadCountField, f.Name, cf.Name)
		}
		cf.isCount = true
	}
	if err := checkMetaWidths(f); err != nil {
		return err
	}
	f.ID = computeID(f)
	return nil
}

// fieldAlign returns the natural alignment of a field's fixed-region slot.
func fieldAlign(arch *machine.Arch, fl *Field) int {
	size := fl.ElemSize
	if fl.Reference() {
		size = arch.PointerSize
	}
	if fl.Kind == Nested && !fl.Dynamic {
		// A nested record aligns to its own record alignment.
		return fl.Nested.Align
	}
	return arch.Align(size)
}

// computeID hashes the canonical metadata of the format.
func computeID(f *Format) FormatID {
	h := fnv.New64a()
	h.Write(marshalMeta(f)) //nolint:errcheck // hash.Hash never errors
	var id FormatID
	sum := h.Sum64()
	for i := 0; i < 8; i++ {
		id[i] = byte(sum >> (8 * (7 - i)))
	}
	return id
}

// adopt inserts a finished format into the catalog. When rename is true and
// the name is taken by a different format, registration fails; adopting an
// identical format (same ID) is idempotent and returns the existing one.
func (c *Context) adopt(f *Format, local bool) (*Format, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.byID[f.ID]; ok {
		return existing, nil
	}
	f.obs = c.obs
	f.facct = c.obs.formatMetrics(f.Name)
	if existing, ok := c.byName[f.Name]; ok {
		if local {
			return nil, fmt.Errorf("pbio: format %q already registered with different definition (id %s vs %s)",
				f.Name, existing.ID, f.ID)
		}
		// Remote format with a colliding name: keep it addressable by ID
		// only. Name lookup continues to find the local definition.
		c.obs.adopted.Add(1)
		c.byID[f.ID] = f
		c.ordered = append(c.ordered, f)
		return f, nil
	}
	if local {
		c.obs.registered.Add(1)
	} else {
		c.obs.adopted.Add(1)
	}
	c.byName[f.Name] = f
	c.byID[f.ID] = f
	c.ordered = append(c.ordered, f)
	return f, nil
}

// Adopt registers a format received from a peer (typically unmarshaled by
// UnmarshalMeta). Adopting the same format twice is idempotent.
func (c *Context) Adopt(f *Format) (*Format, error) {
	if f == nil || len(f.Fields) == 0 {
		return nil, fmt.Errorf("pbio: adopt: nil or empty format")
	}
	return c.adopt(f, false)
}

func alignUp(n, align int) int {
	if align <= 1 {
		return n
	}
	if rem := n % align; rem != 0 {
		return n + align - rem
	}
	return n
}
