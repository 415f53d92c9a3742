// Package dcg compiles record conversion plans — the role dynamic code
// generation plays in the paper's system.
//
// When an NDR record arrives, the receiver may hold a different native
// representation: other byte order, other integer sizes, other alignment and
// therefore other field offsets. PBIO generates custom conversion routines
// on the fly for each (source format, destination format) pair so that the
// per-message cost is a straight run of the generated code rather than a
// per-field interpretation of metadata. Go has no runtime code generation,
// so this package compiles the same analysis into a flat instruction program
// executed by a tight loop — the analysis cost is paid once per pair, the
// per-message cost is bounded by the program length, and the homogeneous
// case degenerates to a single memory copy, preserving NDR's "no conversion
// when representations match" property.
//
// For the ablation benchmark the package also provides Naive, which performs
// the same conversion by full metadata interpretation on every record.
package dcg

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// Plan is a compiled conversion program from records of one format to
// records of another. Plans are immutable and safe for concurrent use.
type Plan struct {
	// Src is the format of input records.
	Src *pbio.Format
	// Dst is the format of output records.
	Dst *pbio.Format
	// Identity reports that source and destination representations are
	// byte-identical, so conversion is a single copy.
	Identity bool

	prog []op
	// variable reports that some instruction, here or in a nested plan,
	// writes to the destination's variable region.
	variable bool
}

type opcode int

const (
	opCopy    opcode = iota + 1 // raw byte copy (identical representation)
	opSwap                      // same-size element, opposite byte order: reverse bytes
	opInt                       // integer resize (and byte swap)
	opFloat                     // float convert (4 <-> 8, byte swap)
	opBool                      // 1-byte boolean
	opString                    // string reference: copy bytes to dst var region
	opNested                    // nested record(s): run child program
	opDynamic                   // dynamic array: loop an element op over var region
)

// op is one instruction. Offsets are relative to the current fixed-region
// base on each side; var-region references are relative to record start.
type op struct {
	code   opcode
	srcOff int
	dstOff int

	size    int  // element size on the source side
	dstSize int  // element size on the destination side
	count   int  // static element count
	signed  bool // sign-extend integers

	child *Plan // nested record program

	// Dynamic array support: where to read the element count on the source
	// side, and how the destination element data must be aligned.
	countOff    int
	countSize   int
	countSigned bool
	elem        *op // element conversion (size/dstSize/child reused)
	elemAlign   int
}

// Compile errors.
var (
	ErrIncompatible = errors.New("dcg: source and destination fields are incompatible")
)

// Compile builds the conversion program from src records to dst records.
// Fields are matched by name: destination fields absent from the source are
// left zero (format evolution), source fields absent from the destination
// are skipped. Matched fields must have the same kind and array shape.
func Compile(src, dst *pbio.Format) (*Plan, error) {
	if src.ID == dst.ID {
		return &Plan{Src: src, Dst: dst, Identity: true}, nil
	}
	return compileProgram(src, dst)
}

// compileProgram builds the field-by-field program, also for a pair of
// identical formats: a nested record cannot take the identity shortcut when
// it refers into the variable region, which belongs to the outer record.
func compileProgram(src, dst *pbio.Format) (*Plan, error) {
	p := &Plan{Src: src, Dst: dst}
	sameRep := src.Arch.Order == dst.Arch.Order
	p.prog = make([]op, 0, len(dst.Fields))
	for di := range dst.Fields {
		dfl := &dst.Fields[di]
		sfl, ok := src.FieldByName(dfl.Name)
		if !ok {
			continue
		}
		o, err := compileField(src, dst, sfl, dfl, sameRep)
		if err != nil {
			return nil, err
		}
		p.prog = append(p.prog, o)
	}
	p.coalesce()
	for i := range p.prog {
		o := &p.prog[i]
		if o.code == opDynamic || o.code == opString || o.code == opNested && o.child.variable {
			p.variable = true
		}
	}
	return p, nil
}

func compileField(src, dst *pbio.Format, sfl, dfl *pbio.Field, sameRep bool) (op, error) {
	if sfl.Kind != dfl.Kind || sfl.Dynamic != dfl.Dynamic {
		return op{}, fmt.Errorf("%w: field %q is %s/%v in source, %s/%v in destination",
			ErrIncompatible, dfl.Name, sfl.Kind, sfl.Dynamic, dfl.Kind, dfl.Dynamic)
	}
	if !sfl.Dynamic && sfl.Count != dfl.Count {
		return op{}, fmt.Errorf("%w: field %q has %d elements in source, %d in destination",
			ErrIncompatible, dfl.Name, sfl.Count, dfl.Count)
	}

	o, err := elementOp(src, dst, sfl, dfl, sameRep)
	if err != nil {
		return op{}, err
	}

	if sfl.Dynamic {
		cf, ok := src.FieldByName(sfl.CountField)
		if !ok {
			return op{}, fmt.Errorf("%w: field %q count field %q missing in source",
				ErrIncompatible, sfl.Name, sfl.CountField)
		}
		align := dst.Arch.Align(dfl.ElemSize)
		if dfl.Kind == pbio.Nested {
			align = dfl.Nested.Align
		}
		elem := o // boxed here, so only a dynamic array's element is
		return op{
			code:        opDynamic,
			srcOff:      sfl.Offset,
			dstOff:      dfl.Offset,
			countOff:    cf.Offset,
			countSize:   cf.ElemSize,
			countSigned: cf.Kind == pbio.Int,
			elem:        &elem,
			elemAlign:   align,
		}, nil
	}

	o.srcOff = sfl.Offset
	o.dstOff = dfl.Offset
	o.count = sfl.Count
	// A run of elements with identical representation collapses into one
	// copy covering the whole slot.
	if o.code == opCopy {
		o.size *= o.count
		o.dstSize = o.size
		o.count = 1
	}
	return o, nil
}

// elementOp builds the per-element instruction with offsets left at zero.
func elementOp(src, dst *pbio.Format, sfl, dfl *pbio.Field, sameRep bool) (op, error) {
	switch dfl.Kind {
	case pbio.Int, pbio.Uint, pbio.Char:
		if sfl.ElemSize == dfl.ElemSize {
			if sameRep || sfl.ElemSize == 1 {
				return op{code: opCopy, size: sfl.ElemSize, dstSize: dfl.ElemSize}, nil
			}
			// Byte reversal is exactly the endianness conversion for a
			// two's-complement integer of unchanged width.
			return op{code: opSwap, size: sfl.ElemSize, dstSize: dfl.ElemSize}, nil
		}
		return op{
			code: opInt, size: sfl.ElemSize, dstSize: dfl.ElemSize,
			signed: dfl.Kind != pbio.Uint,
		}, nil
	case pbio.Float:
		if sfl.ElemSize == dfl.ElemSize {
			if sameRep {
				return op{code: opCopy, size: sfl.ElemSize, dstSize: dfl.ElemSize}, nil
			}
			// IEEE 754 bit patterns swap bytes like integers.
			return op{code: opSwap, size: sfl.ElemSize, dstSize: dfl.ElemSize}, nil
		}
		return op{code: opFloat, size: sfl.ElemSize, dstSize: dfl.ElemSize}, nil
	case pbio.Bool:
		return op{code: opBool, size: 1, dstSize: 1}, nil
	case pbio.String:
		return op{code: opString, size: sfl.ElemSize, dstSize: dfl.ElemSize}, nil
	case pbio.Nested:
		// An identical nested format is one copy only if the copy is the whole
		// of it: its string and dynamic-array slots hold offsets into the
		// outer record, where the data they point at has to be moved too.
		if sfl.Nested.ID == dfl.Nested.ID && sameRep && !sfl.Nested.HasVariable() {
			return op{code: opCopy, size: sfl.Nested.Size, dstSize: dfl.Nested.Size}, nil
		}
		child, err := compileProgram(sfl.Nested, dfl.Nested)
		if err != nil {
			return op{}, err
		}
		return op{code: opNested, size: sfl.Nested.Size, dstSize: dfl.Nested.Size, child: child}, nil
	default:
		return op{}, fmt.Errorf("%w: field %q has kind %v", ErrIncompatible, dfl.Name, dfl.Kind)
	}
}

// coalesce merges adjacent instructions that do the same thing to ranges
// contiguous on both sides: copies into one copy (a same-representation
// prefix becomes a single memmove), and scalar conversions of one
// representation — a run of doubles, a run of ints — into one instruction
// with their total count, which is one kernel call for the run.
func (p *Plan) coalesce() {
	out := p.prog[:0]
	for _, o := range p.prog {
		if len(out) > 0 {
			last := &out[len(out)-1]
			switch {
			case o.code != last.code:
			case o.code == opCopy && last.srcOff+last.size == o.srcOff && last.dstOff+last.size == o.dstOff:
				last.size += o.size
				last.dstSize = last.size
				continue
			case (o.code == opSwap || o.code == opInt || o.code == opFloat || o.code == opBool) &&
				o.size == last.size && o.dstSize == last.dstSize && o.signed == last.signed &&
				last.srcOff+last.count*last.size == o.srcOff && last.dstOff+last.count*last.dstSize == o.dstOff:
				last.count += o.count
				continue
			}
		}
		out = append(out, o)
	}
	p.prog = out
}

// Ops reports the number of instructions in the compiled program; the
// identity plan has zero. Exposed for tests and benchmarks.
func (p *Plan) Ops() int { return len(p.prog) }

// Convert translates one NDR record of the source format into a fresh NDR
// record of the destination format, allocated at exactly its size.
func (p *Plan) Convert(src []byte) ([]byte, error) { return p.AppendConvert(nil, src) }

// ConvertCtx is Convert with AppendConvertCtx's tracing.
func (p *Plan) ConvertCtx(tc trace.Ctx, src []byte) ([]byte, error) {
	return p.AppendConvertCtx(tc, nil, src)
}

// AppendConvert appends the converted record to out for buffer reuse. An
// out without room for the record's fixed region is reallocated once, at
// exactly what it holds plus the converted record, so a caller can build a
// prefix (a frame header, say) and have prefix and record share one
// allocation.
func (p *Plan) AppendConvert(out, src []byte) ([]byte, error) {
	if len(src) < p.Src.Size {
		return nil, fmt.Errorf("dcg: record of %d bytes, source fixed region needs %d",
			len(src), p.Src.Size)
	}
	conversions.Add(1)
	if p.Identity {
		return append(growBy(out, len(src)), src...), nil
	}
	base := len(out)
	if cap(out)-base < p.Dst.Size {
		out = growBy(out, p.measure(p.Dst.Size, src, 0))
	}
	out = append(out, make([]byte, p.Dst.Size)...)
	return p.run(out, base, base, src, 0)
}

// AppendConvertCtx is AppendConvert with tracing: when tc is sampled the
// conversion is recorded as a dcg.convert child span naming the format
// pair, timed into the dcg.convert_ns histogram with the TraceID as the
// bucket's exemplar.
func (p *Plan) AppendConvertCtx(tc trace.Ctx, out, src []byte) ([]byte, error) {
	if !tc.Sampled() {
		return p.AppendConvert(out, src)
	}
	sp := tc.Child(trace.KindConvert)
	start := time.Now()
	out, err := p.AppendConvert(out, src)
	convertNS.ObserveExemplar(time.Since(start).Nanoseconds(), tc.Trace())
	sp.Finish(p.Src.Name + "->" + p.Dst.Name)
	return out, err
}

// growBy returns out with room for n more bytes, reallocated at exactly
// that capacity when it has less.
func growBy(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	grown := make([]byte, len(out), len(out)+n)
	copy(grown, out)
	return grown
}

// run executes the program for one (possibly nested) fixed region. Scalar
// conversions are one bulk kernel call per instruction: byte orders and
// widths are decided per instruction, not per element.
func (p *Plan) run(out []byte, recBase, dstFixed int, src []byte, srcFixed int) ([]byte, error) {
	srcOrder := p.Src.Arch.Order
	dstOrder := p.Dst.Arch.Order
	var err error
	for i := range p.prog {
		o := &p.prog[i]
		sOff := srcFixed + o.srcOff
		dOff := dstFixed + o.dstOff
		switch o.code {
		case opCopy:
			copy(out[dOff:dOff+o.size], src[sOff:sOff+o.size])
		case opSwap:
			machine.SwapBytes(out[dOff:dOff+o.count*o.size], src[sOff:sOff+o.count*o.size], o.size)
		case opInt:
			machine.ResizeInts(out[dOff:], dstOrder, o.dstSize, src[sOff:sOff+o.count*o.size], srcOrder, o.size, o.signed)
		case opFloat:
			machine.ResizeFloats(out[dOff:], dstOrder, o.dstSize, src[sOff:sOff+o.count*o.size], srcOrder, o.size)
		case opBool:
			for e := 0; e < o.count; e++ {
				if src[sOff+e] != 0 {
					out[dOff+e] = 1
				} else {
					out[dOff+e] = 0
				}
			}
		case opString:
			for e := 0; e < o.count; e++ {
				out, err = p.convertString(out, recBase, dOff+e*o.dstSize, src, sOff+e*o.size)
				if err != nil {
					return nil, err
				}
			}
		case opNested:
			for e := 0; e < o.count; e++ {
				out, err = o.child.run(out, recBase, dOff+e*o.dstSize, src, sOff+e*o.size)
				if err != nil {
					return nil, err
				}
			}
		case opDynamic:
			out, err = p.convertDynamic(out, recBase, dstFixed, src, srcFixed, o)
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// stringAt follows the string pointer slot at slot and returns the string's
// bytes with their NUL, or nil for a NULL pointer.
func (p *Plan) stringAt(src []byte, slot int) ([]byte, error) {
	ref := machine.Uint(src[slot:], p.Src.Arch.Order, p.Src.Arch.PointerSize)
	if ref == 0 {
		return nil, nil
	}
	if ref >= uint64(len(src)) {
		return nil, fmt.Errorf("dcg: string reference %d outside %d-byte record", ref, len(src))
	}
	end := bytes.IndexByte(src[ref:], 0)
	if end < 0 {
		return nil, fmt.Errorf("dcg: unterminated string at %d", ref)
	}
	return src[ref : int(ref)+end+1], nil
}

func (p *Plan) convertString(out []byte, recBase, dstSlot int, src []byte, srcSlot int) ([]byte, error) {
	s, err := p.stringAt(src, srcSlot)
	if s == nil {
		return out, err
	}
	newRef := len(out) - recBase
	out = append(out, s...)
	machine.PutUint(out[dstSlot:], p.Dst.Arch.Order, p.Dst.Arch.PointerSize, uint64(newRef))
	return out, nil
}

// dynamicAt is the one validation of a dynamic array's count field and
// pointer slot on the source side: it returns where the elements start and
// how many there are, n == 0 for an empty array. Both values come off the
// wire; the count is compared by division so that no count, however large,
// can wrap the product past the check.
func (p *Plan) dynamicAt(src []byte, srcFixed int, o *op) (start, n int, err error) {
	raw := machine.Uint(src[srcFixed+o.countOff:], p.Src.Arch.Order, o.countSize)
	count := int64(raw)
	if o.countSigned {
		count = machine.SignExtend(raw, o.countSize)
	}
	if count < 0 {
		return 0, 0, fmt.Errorf("dcg: negative dynamic count %d", count)
	}
	if count == 0 {
		return 0, 0, nil
	}
	if count > int64(len(src))/int64(o.elem.size) {
		return 0, 0, fmt.Errorf("dcg: dynamic count %d x %d exceeds record size %d",
			count, o.elem.size, len(src))
	}
	ref := machine.Uint(src[srcFixed+o.srcOff:], p.Src.Arch.Order, p.Src.Arch.PointerSize)
	if ref == 0 || ref >= uint64(len(src)) {
		return 0, 0, fmt.Errorf("dcg: dynamic array reference %d outside %d-byte record", ref, len(src))
	}
	if int(ref)+int(count)*o.elem.size > len(src) {
		return 0, 0, fmt.Errorf("dcg: dynamic array escapes record")
	}
	return int(ref), int(count), nil
}

func (p *Plan) convertDynamic(out []byte, recBase, dstFixed int, src []byte, srcFixed int, o *op) ([]byte, error) {
	sStart, n, err := p.dynamicAt(src, srcFixed, o)
	if err != nil || n == 0 {
		return out, err
	}
	dStart := recBase + alignUp(len(out)-recBase, o.elemAlign)
	out = append(out, make([]byte, dStart-len(out)+n*o.elem.dstSize)...)

	elem := *o.elem
	elem.srcOff, elem.dstOff = 0, 0
	switch elem.code {
	case opNested, opString:
		// Reference-bearing elements need per-element variable-region work.
		elem.count = 1
		sub := Plan{Src: p.Src, Dst: p.Dst, prog: []op{elem}}
		for e := 0; e < n; e++ {
			out, err = sub.run(out, recBase, dStart+e*elem.dstSize, src, sStart+e*elem.size)
			if err != nil {
				return nil, err
			}
		}
	case opCopy:
		// One bulk copy covers the whole array.
		copy(out[dStart:dStart+n*elem.size], src[sStart:])
	default:
		// Scalar conversions run as one instruction with the array count —
		// a single kernel call, no per-element dispatch.
		elem.count = n
		sub := Plan{Src: p.Src, Dst: p.Dst, prog: []op{elem}}
		if out, err = sub.run(out, recBase, dStart, src, sStart); err != nil {
			return nil, err
		}
	}
	machine.PutUint(out[dstFixed+o.dstOff:], p.Dst.Arch.Order, p.Dst.Arch.PointerSize, uint64(dStart-recBase))
	return out, nil
}

// measure adds to size what run will append to the variable region for the
// fixed region at srcFixed, in run's order (alignment padding depends on
// it), so Convert can allocate its output exactly. What it cannot follow it
// counts as empty; run is where the record is rejected.
func (p *Plan) measure(size int, src []byte, srcFixed int) int {
	if !p.variable {
		return size
	}
	for i := range p.prog {
		o := &p.prog[i]
		sOff, elem, n := srcFixed+o.srcOff, o, o.count
		if o.code == opDynamic {
			var err error
			if sOff, n, err = p.dynamicAt(src, srcFixed, o); err != nil || n == 0 {
				continue
			}
			elem = o.elem
			size = alignUp(size, o.elemAlign) + n*elem.dstSize
		}
		if elem.code != opString && elem.code != opNested {
			continue
		}
		for e := 0; e < n; e++ {
			switch elem.code {
			case opString:
				if s, err := p.stringAt(src, sOff+e*elem.size); err == nil {
					size += len(s)
				}
			case opNested:
				size = elem.child.measure(size, src, sOff+e*elem.size)
			}
		}
	}
	return size
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

// Naive converts by full metadata interpretation on every record — decode to
// a generic record, re-encode in the destination format. It exists as the
// ablation baseline quantifying what plan compilation buys.
func Naive(src, dst *pbio.Format, data []byte) ([]byte, error) {
	rec, err := src.Decode(data)
	if err != nil {
		return nil, err
	}
	return dst.Encode(rec)
}
