package pbio

import (
	"bytes"
	"fmt"

	"openmeta/internal/machine"
)

// program is a format compiled for the codec: the field list flattened into
// what the encode and decode walks need per field, every name resolved to an
// index. It is built once per format, on first use — formats that are only
// adopted and handed to dcg never pay for it.
type program struct {
	format *Format
	order  machine.ByteOrder
	ptr    int // pointer-slot size
	size   int // fixed-region size
	ops    []fieldOp
	// words is what the fields without variable data take of a record's
	// block (slab.go); need adds what the others take.
	words int
	// variable: some field, here or in a nested record, puts data in the
	// variable region; strings: one of them is a string.
	variable, strings bool
}

// fieldOp is one field of a program.
type fieldOp struct {
	name  string
	child *program // Nested: the element format's program
	off   int32    // offset in the fixed region
	size  int32    // element size
	count int32    // static element count (1 for scalars)
	// countIdx is, for a dynamic array, the index of the op carrying its
	// length; lenOf is, for such a length field, the index of the first
	// dynamic array it sizes. Both are -1 otherwise.
	countIdx, lenOf int32
	align           int32 // dynamic array: alignment of its elements in the variable region
	kind            Kind
	dynamic         bool
	// variable and strings are the program flags for this field alone.
	variable, strings bool
}

// array reports whether the field holds more than one element slot.
func (op *fieldOp) array() bool { return op.dynamic || op.count > 1 }

// compiled returns the format's program, compiling it on first use.
func (f *Format) compiled() *program {
	if p := f.prog.Load(); p != nil {
		return p
	}
	f.prog.CompareAndSwap(nil, compile(f))
	return f.prog.Load()
}

// HasVariable reports whether a record of the format can put data in the
// variable region: a string or a dynamic array, here or in a nested record.
// Without any, the fixed region is the whole record.
func (f *Format) HasVariable() bool { return f.compiled().variable }

func compile(f *Format) *program {
	p := &program{
		format: f, order: f.Arch.Order, ptr: f.Arch.PointerSize, size: f.Size,
		ops: make([]fieldOp, len(f.Fields)),
	}
	for i := range f.Fields {
		fl := &f.Fields[i]
		op := &p.ops[i]
		*op = fieldOp{
			name: fl.Name, kind: fl.Kind, dynamic: fl.Dynamic,
			off: int32(fl.Offset), size: int32(fl.ElemSize), count: int32(fl.Count),
			countIdx: -1, lenOf: -1,
			strings: fl.Kind == String, variable: fl.Reference(),
		}
		if fl.Kind == Nested {
			op.child = fl.Nested.compiled()
			op.strings = op.child.strings
			op.variable = op.variable || op.child.variable
		}
		switch {
		case op.variable: // need counts it per record
		case fl.Kind == Nested:
			p.words += fl.Count * op.child.words
		default:
			p.words += blockWords(fl.Kind, op.array(), fl.Count)
		}
		if fl.Dynamic {
			op.countIdx = int32(f.byName[fl.CountField])
			op.align = int32(f.Arch.Align(fl.ElemSize))
			if fl.Kind == Nested {
				op.align = int32(fl.Nested.Align)
			}
		}
		p.variable = p.variable || op.variable
		p.strings = p.strings || op.strings
	}
	for i := range p.ops {
		if ci := p.ops[i].countIdx; ci >= 0 && p.ops[ci].lenOf < 0 {
			p.ops[ci].lenOf = int32(i)
		}
	}
	return p
}

// dynamicRef is the one validation of a dynamic array's count field and
// pointer slot: it returns where the elements start and how many there are,
// or n == 0 for an empty array (whose pointer slot is not consulted). Both
// values come off the wire; the count is compared by division, so that no
// count, however large, can wrap the product past the check.
func (p *program) dynamicRef(data []byte, base int, op *fieldOp) (at, n int, err error) {
	cf := &p.ops[op.countIdx]
	raw := machine.Uint(data[base+int(cf.off):], p.order, int(cf.size))
	count := machine.SignExtend(raw, int(cf.size))
	if cf.kind == Uint {
		count = int64(raw)
	}
	if count < 0 {
		return 0, 0, fmt.Errorf("%w: negative count %d", ErrCountMismatch, count)
	}
	if count == 0 {
		return 0, 0, nil
	}
	if count > int64(len(data))/int64(op.size) {
		return 0, 0, fmt.Errorf("%w: count %d x %d bytes exceeds record size %d",
			ErrBadReference, count, op.size, len(data))
	}
	ref := machine.Uint(data[base+int(op.off):], p.order, p.ptr)
	if ref == 0 {
		return 0, 0, fmt.Errorf("%w: count %d but nil array pointer", ErrCountMismatch, count)
	}
	if ref >= uint64(len(data)) {
		return 0, 0, fmt.Errorf("%w: array at %d in %d-byte record", ErrBadReference, ref, len(data))
	}
	if int(ref)+int(count)*int(op.size) > len(data) {
		return 0, 0, fmt.Errorf("%w: array of %d x %d bytes at %d in %d-byte record",
			ErrBadReference, count, op.size, ref, len(data))
	}
	return int(ref), int(count), nil
}

// stringRef follows the pointer slot at off to a NUL-terminated string in
// the variable region and returns its bytes. A zero reference is a NULL
// char* and reads as the empty string.
func (p *program) stringRef(data []byte, off int) ([]byte, error) {
	ref := machine.Uint(data[off:], p.order, p.ptr)
	if ref == 0 {
		return nil, nil
	}
	if ref >= uint64(len(data)) {
		return nil, fmt.Errorf("%w: string at %d in %d-byte record", ErrBadReference, ref, len(data))
	}
	end := bytes.IndexByte(data[ref:], 0)
	if end < 0 {
		return nil, fmt.Errorf("%w: unterminated string at %d", ErrBadReference, ref)
	}
	return data[ref : int(ref)+end], nil
}

// need is the one pre-pass of a decode: the words and text bytes of the
// block (slab.go) that a generic decode of the record whose fixed region
// starts at base takes. Its text is also the string bytes a bound decode
// cuts from one []byte. It follows what varies per record, strings and
// dynamic arrays, into nested records and every element of an array of
// records. What it cannot follow it counts as empty; the decode walk rejects
// the record.
func (p *program) need(data []byte, base int) (words, text int) {
	words = p.words
	if !p.variable {
		return words, 0
	}
	for i := range p.ops {
		op := &p.ops[i]
		if !op.variable {
			continue
		}
		at, n := base+int(op.off), int(op.count)
		if op.dynamic {
			var err error
			if at, n, err = p.dynamicRef(data, base, op); err != nil {
				continue
			}
		}
		switch op.kind {
		case Nested:
			for e := 0; e < n; e++ {
				w, t := op.child.need(data, at+e*int(op.size))
				words, text = words+w, text+t
			}
		case String:
			for e := 0; e < n; e++ {
				s, _ := p.stringRef(data, at+e*int(op.size))
				text += len(s)
			}
		}
		words += blockWords(op.kind, op.array(), n)
	}
	return words, text
}
