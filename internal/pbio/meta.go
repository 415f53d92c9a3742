package pbio

import (
	"errors"
	"fmt"
	"slices"

	"openmeta/internal/machine"
)

// Format metadata travels between peers in a compact, self-contained binary
// encoding: every nested format a record format depends on is included, in
// dependency order, so a receiver can reconstruct the full format graph from
// one message. The encoding is deliberately simple and versioned:
//
//	magic   [4]byte  "PBF1"
//	count   u8       number of formats, dependency-ordered; last is the root
//	formats:
//	  name      str      (u16 length + bytes)
//	  order     u8       1 = little endian, 2 = big endian
//	  ptrSize   u8
//	  maxAlign  u8
//	  archName  str
//	  size      u32      fixed-region size
//	  align     u16
//	  nfields   u16
//	  fields:
//	    name       str
//	    kind       u8
//	    elemSize   u32
//	    count      u32
//	    flags      u8    bit0 = dynamic
//	    countField str
//	    offset     u32
//	    slot       u32
//	    nestedIdx  u8    index into the formats array (0xFF = none)
//
// All multi-byte integers are big-endian. The same bytes feed the format ID
// hash, so "identical metadata" and "identical ID" coincide.

var metaMagic = [4]byte{'P', 'B', 'F', '1'}

// The widths the encoding gives the values it carries. A value past one
// would wrap silently and the metadata would not round-trip, so
// checkMetaWidths rejects such a format when it is built.
const (
	maxMetaStr    = 1<<16 - 1 // u16 string lengths
	maxMetaFields = 1<<16 - 1 // u16 field count
	maxMetaDeps   = 255       // u8 format count; nested indices stay below 0xFF
)

// ErrBadMeta reports malformed format metadata.
var ErrBadMeta = errors.New("pbio: malformed format metadata")

// MarshalMeta serializes f and its nested format dependencies.
func MarshalMeta(f *Format) []byte {
	metaMarshals.Add(1)
	buf := marshalMeta(f)
	metaBytesVec.With(f.Name).Add(int64(len(buf)))
	return buf
}

func marshalMeta(f *Format) []byte {
	var stack [8]*Format
	deps := appendDeps(stack[:0], f)

	buf := make([]byte, 0, 64+64*len(f.Fields))
	buf = append(buf, metaMagic[:]...)
	buf = append(buf, byte(len(deps)))
	for _, g := range deps {
		buf = appendStr(buf, g.Name)
		buf = append(buf, byte(g.Arch.Order), byte(g.Arch.PointerSize), byte(g.Arch.MaxAlign))
		buf = appendStr(buf, g.Arch.Name)
		buf = appendU32(buf, uint32(g.Size))
		buf = appendU16(buf, uint16(g.Align))
		buf = appendU16(buf, uint16(len(g.Fields)))
		for i := range g.Fields {
			fl := &g.Fields[i]
			buf = appendStr(buf, fl.Name)
			buf = append(buf, byte(fl.Kind))
			buf = appendU32(buf, uint32(fl.ElemSize))
			buf = appendU32(buf, uint32(fl.Count))
			var flags byte
			if fl.Dynamic {
				flags |= 1
			}
			buf = append(buf, flags)
			buf = appendStr(buf, fl.CountField)
			buf = appendU32(buf, uint32(fl.Offset))
			buf = appendU32(buf, uint32(fl.Slot))
			if fl.Nested != nil {
				buf = append(buf, byte(slices.Index(deps, fl.Nested)))
			} else {
				buf = append(buf, 0xFF)
			}
		}
	}
	return buf
}

// appendDeps appends the formats g's nested fields refer to, each after its
// own dependencies, then g itself, skipping any format deps already holds.
// The result is the dependency order the metadata lists formats in.
func appendDeps(deps []*Format, g *Format) []*Format {
	if slices.Contains(deps, g) {
		return deps
	}
	for i := range g.Fields {
		if n := g.Fields[i].Nested; n != nil {
			deps = appendDeps(deps, n)
		}
	}
	return append(deps, g)
}

// checkMetaWidths rejects a format whose metadata would not fit the widths
// of the encoding: such a format registers, but can never be sent.
func checkMetaWidths(f *Format) error {
	tooWide := func(what string, n, limit int) error {
		return fmt.Errorf("pbio: format %.64q: %s %d exceeds the metadata limit of %d", f.Name, what, n, limit)
	}
	switch {
	case len(f.Name) > maxMetaStr:
		return tooWide("name length", len(f.Name), maxMetaStr)
	case len(f.Arch.Name) > maxMetaStr:
		return tooWide("architecture name length", len(f.Arch.Name), maxMetaStr)
	case len(f.Fields) > maxMetaFields:
		return tooWide("field count", len(f.Fields), maxMetaFields)
	}
	for i := range f.Fields {
		if n := max(len(f.Fields[i].Name), len(f.Fields[i].CountField)); n > maxMetaStr {
			return tooWide("field name length", n, maxMetaStr)
		}
	}
	var stack [8]*Format
	if n := len(appendDeps(stack[:0], f)); n > maxMetaDeps {
		return tooWide("dependency count", n, maxMetaDeps)
	}
	return nil
}

// UnmarshalMeta reconstructs a format (and its dependencies) from metadata
// produced by MarshalMeta, typically on a different machine. The returned
// format carries a synthetic Arch with the origin's byte order, pointer size
// and alignment cap, which is everything decoding needs.
func UnmarshalMeta(data []byte) (*Format, error) {
	metaUnmarshals.Add(1)
	r := &metaReader{data: data}
	var magic [4]byte
	r.bytes(magic[:])
	if r.err != nil || magic != metaMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadMeta)
	}
	count := int(r.u8())
	if count == 0 {
		return nil, fmt.Errorf("%w: zero formats", ErrBadMeta)
	}
	formats := make([]*Format, 0, count)
	for fi := 0; fi < count; fi++ {
		name := r.str()
		order := machine.ByteOrder(r.u8())
		ptrSize := int(r.u8())
		maxAlign := int(r.u8())
		archName := r.str()
		size := int(r.u32())
		align := int(r.u16())
		nfields := int(r.u16())
		if r.err != nil {
			return nil, r.err
		}
		if order != machine.LittleEndian && order != machine.BigEndian {
			return nil, fmt.Errorf("%w: bad byte order %d", ErrBadMeta, order)
		}
		// Pointer slots are read as integers of the pointer size, so only
		// the widths machine.Uint reads may be announced.
		if (ptrSize != 2 && ptrSize != 4 && ptrSize != 8) ||
			maxAlign <= 0 || maxAlign > 16 || maxAlign&(maxAlign-1) != 0 {
			return nil, fmt.Errorf("%w: bad arch sizes (pointer %d, max align %d)", ErrBadMeta, ptrSize, maxAlign)
		}
		f := &Format{
			Name:   name,
			Arch:   syntheticArch(archName, order, ptrSize, maxAlign),
			Size:   size,
			Align:  align,
			Fields: make([]Field, 0, nfields),
			byName: make(map[string]int, nfields),
		}
		for i := 0; i < nfields; i++ {
			fl := Field{
				Name: r.str(),
				Kind: Kind(r.u8()),
			}
			fl.ElemSize = int(r.u32())
			fl.Count = int(r.u32())
			flags := r.u8()
			fl.Dynamic = flags&1 != 0
			fl.CountField = r.str()
			fl.Offset = int(r.u32())
			fl.Slot = int(r.u32())
			nestedIdx := r.u8()
			if r.err != nil {
				return nil, r.err
			}
			if nestedIdx != 0xFF {
				if int(nestedIdx) >= len(formats) {
					return nil, fmt.Errorf("%w: nested index %d out of range", ErrBadMeta, nestedIdx)
				}
				fl.Nested = formats[nestedIdx]
			}
			if fl.Kind == Nested && fl.Nested == nil {
				return nil, fmt.Errorf("%w: nested field %q without nested format", ErrBadMeta, fl.Name)
			}
			if _, dup := f.byName[fl.Name]; dup {
				return nil, fmt.Errorf("%w: duplicate field %q", ErrBadMeta, fl.Name)
			}
			f.byName[fl.Name] = len(f.Fields)
			f.Fields = append(f.Fields, fl)
		}
		if err := validateRemote(f); err != nil {
			return nil, err
		}
		f.ID = computeID(f)
		formats = append(formats, f)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != r.pos {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMeta, len(r.data)-r.pos)
	}
	root := formats[len(formats)-1]
	metaBytesVec.With(root.Name).Add(int64(len(data)))
	return root, nil
}

// MetaRootName extracts the root format's name from marshaled metadata
// without reconstructing the format graph and without touching the metadata
// accounting counters. Brokers use it to label per-format wire metrics for
// payloads they route but never decode.
func MetaRootName(data []byte) (string, error) {
	r := &metaReader{data: data}
	var magic [4]byte
	r.bytes(magic[:])
	if r.err != nil || magic != metaMagic {
		return "", fmt.Errorf("%w: bad magic", ErrBadMeta)
	}
	count := int(r.u8())
	if count == 0 {
		return "", fmt.Errorf("%w: zero formats", ErrBadMeta)
	}
	var name string
	for fi := 0; fi < count; fi++ {
		name = r.str() // formats are dependency-ordered; the last name wins
		r.u8()         // byte order
		r.u8()         // pointer size
		r.u8()         // max align
		r.str()        // arch name
		r.u32()        // size
		r.u16()        // align
		nfields := int(r.u16())
		for i := 0; i < nfields && r.err == nil; i++ {
			r.str() // field name
			r.u8()  // kind
			r.u32() // elem size
			r.u32() // count
			r.u8()  // flags
			r.str() // count field
			r.u32() // offset
			r.u32() // slot
			r.u8()  // nested index
		}
		if r.err != nil {
			return "", r.err
		}
	}
	return name, nil
}

// validateRemote applies the safety checks decode relies on, since remote
// metadata cannot be trusted to be well-formed.
func validateRemote(f *Format) error {
	if len(f.Fields) == 0 {
		return fmt.Errorf("%w: format %q has no fields", ErrBadMeta, f.Name)
	}
	if f.Size <= 0 {
		return fmt.Errorf("%w: format %q has size %d", ErrBadMeta, f.Name, f.Size)
	}
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.Kind == Nested {
			if fl.ElemSize != fl.Nested.Size {
				return fmt.Errorf("%w: field %q elem size %d != nested size %d",
					ErrBadMeta, fl.Name, fl.ElemSize, fl.Nested.Size)
			}
		} else if !validSize(fl.Kind, fl.ElemSize, f.Arch.PointerSize) {
			return fmt.Errorf("%w: field %q: %s of size %d", ErrBadMeta, fl.Name, fl.Kind, fl.ElemSize)
		}
		if fl.Count < 1 {
			return fmt.Errorf("%w: field %q count %d", ErrBadMeta, fl.Name, fl.Count)
		}
		wantSlot := fl.ElemSize * fl.Count
		if fl.Dynamic {
			wantSlot = f.Arch.PointerSize
		}
		if fl.Slot != wantSlot {
			return fmt.Errorf("%w: field %q slot %d, want %d", ErrBadMeta, fl.Name, fl.Slot, wantSlot)
		}
		if fl.Offset < 0 || fl.Offset+fl.Slot > f.Size {
			return fmt.Errorf("%w: field %q extends past record end", ErrBadMeta, fl.Name)
		}
		if fl.Dynamic {
			ci, ok := f.byName[fl.CountField]
			if !ok {
				return fmt.Errorf("%w: field %q references missing count field %q",
					ErrBadMeta, fl.Name, fl.CountField)
			}
			cf := &f.Fields[ci]
			if (cf.Kind != Int && cf.Kind != Uint) || cf.Count != 1 || cf.Dynamic {
				return fmt.Errorf("%w: count field %q is not a scalar integer", ErrBadMeta, cf.Name)
			}
			cf.isCount = true
		}
		if fl.Kind == String && fl.Dynamic {
			return fmt.Errorf("%w: field %q: dynamic string arrays unsupported", ErrBadMeta, fl.Name)
		}
	}
	return nil
}

// syntheticArch builds an Arch carrying the properties metadata transmits.
// Sizes not carried by metadata are filled with conventional values; decode
// never consults them (element sizes travel per field).
func syntheticArch(name string, order machine.ByteOrder, ptrSize, maxAlign int) *machine.Arch {
	return &machine.Arch{
		Name: name, Order: order,
		CharSize: 1, ShortSize: 2, IntSize: 4,
		LongSize: ptrSize, LongLongSize: 8,
		FloatSize: 4, DoubleSize: 8,
		PointerSize: ptrSize, MaxAlign: maxAlign,
	}
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func appendStr(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

type metaReader struct {
	data []byte
	pos  int
	err  error
}

func (r *metaReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated", ErrBadMeta)
	}
}

func (r *metaReader) bytes(dst []byte) {
	if r.err != nil {
		return
	}
	if r.pos+len(dst) > len(r.data) {
		r.fail()
		return
	}
	copy(dst, r.data[r.pos:])
	r.pos += len(dst)
}

func (r *metaReader) u8() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.pos]
	r.pos++
	return v
}

func (r *metaReader) u16() uint16 {
	var b [2]byte
	r.bytes(b[:])
	return uint16(b[0])<<8 | uint16(b[1])
}

func (r *metaReader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (r *metaReader) str() string {
	n := int(r.u16())
	if r.err != nil {
		return ""
	}
	if r.pos+n > len(r.data) {
		r.fail()
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}
