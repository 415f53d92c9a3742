package pbio

import "unsafe"

// A generic Record holds each numeric scalar, string and array as an
// interface{} whose data word points at the value (a number, a string header
// or a slice header), and Go's own conversion gives every such value a heap
// allocation of its own. The builder points the data word into memory it
// owns instead. reflect cannot do this: Value.Interface copies to a new box.
//
// Format.Decode takes a record's values from one block, a []uint64 sized by
// one pre-pass (program.need): its numeric scalars, its strings' headers and
// bytes, and the headers and backing arrays of its numeric and bool arrays.
// A []uint64 is noscan, so the collector never looks inside the block, and
// the invariant is: a header may be written into the block only if what it
// points at is inside the same block (or nil). Everything else goes to
// memory the collector scans: a string or array the pre-pass did not count
// (only a malformed record gets there); []string and []Record backings and
// their headers, since a caller may store any string in a []string it holds
// and a []Record holds maps; and every value boxed by the exported Str and
// Ints to Records. A block array has cap == len, so an append to it copies.
//
// The XDR and XML-text decoders box through the exported methods from three
// slabs per record, which Begin sizes: []uint64 for numbers, []string for
// string headers and [][]byte for slice headers. Every slice header has its
// data pointer in word 0, so the collector scans a []int64 header written in
// a []byte slot as it scans a []byte's.
//
// Each slot, of a block or a slab, is written before its interface escapes
// and never after. A pointer into a block keeps all of it alive: a value
// kept after its record is dropped keeps the record's whole block, about its
// decoded size. A value from a slab keeps that slab and what it points at.

// eface is the runtime's layout of an interface{}.
type eface struct{ typ, data unsafe.Pointer }

var (
	int64Type    = typeWord(int64(0))
	uint64Type   = typeWord(uint64(0))
	float64Type  = typeWord(float64(0))
	stringType   = typeWord("")
	int64sType   = typeWord([]int64(nil))
	uint64sType  = typeWord([]uint64(nil))
	float64sType = typeWord([]float64(nil))
	boolsType    = typeWord([]bool(nil))
	stringsType  = typeWord([]string(nil))
	recordsType  = typeWord([]Record(nil))
)

func typeWord(x interface{}) unsafe.Pointer { return (*eface)(unsafe.Pointer(&x)).typ }

// next hands out the next slot of a slab, or a fresh heap one past its end.
func next[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		return new(T)
	}
	p := &(*slab)[0]
	*slab = (*slab)[1:]
	return p
}

// iface returns the interface{} whose type word is typ and whose data word
// is p.
func iface(typ, p unsafe.Pointer) (x interface{}) {
	*(*eface)(unsafe.Pointer(&x)) = eface{typ, p}
	return x
}

// box returns bits as an interface{} of the type whose type word is typ,
// stored in the next word of the numeric slab (the block's words, for NDR).
func (b *RecordBuilder) box(typ unsafe.Pointer, bits uint64) interface{} {
	w := next(&b.slab.words)
	*w = bits
	return iface(typ, unsafe.Pointer(w))
}

// Str boxes s in the next header of the string slab.
func (b *RecordBuilder) Str(s string) interface{} {
	h := next(&b.slab.strs)
	*h = s
	return iface(stringType, unsafe.Pointer(h))
}

// boxSlice returns s as an interface{} of the slice type whose type word is
// typ, its header stored in the next slot of the slice slab.
func boxSlice[T any](b *RecordBuilder, typ unsafe.Pointer, s []T) interface{} {
	h := next(&b.slab.slices)
	*(*[]T)(unsafe.Pointer(h)) = s
	return iface(typ, unsafe.Pointer(h))
}

// block allocates one record's block, words for the numeric slab and text
// bytes for its strings, and returns the text.
func (b *RecordBuilder) block(words, text int) []byte {
	blk := make([]uint64, words+(text+7)/8)
	b.slab.words = blk[:words]
	if text == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&blk[words])), text)
}

// take hands out the next n words of the block, or nil if fewer are left.
func (b *RecordBuilder) take(n int) []uint64 {
	if len(b.slab.words) < n {
		return nil
	}
	w := b.slab.words[:n:n]
	b.slab.words = b.slab.words[n:]
	return w
}

// cutText copies raw, which is not empty, to the front of text and returns
// it as a string, or ok == false if text is shorter than raw.
func cutText(text *[]byte, raw []byte) (s string, ok bool) {
	if len(raw) > len(*text) {
		return "", false
	}
	s = unsafe.String(&(*text)[0], copy(*text, raw))
	*text = (*text)[len(raw):]
	return s, true
}

// blockStr boxes s with its header in the next two words of the block. A
// string whose bytes are not in the block (cut false) goes to Str.
func (b *RecordBuilder) blockStr(s string, cut bool) interface{} {
	if s == "" {
		return s // the runtime's static box
	}
	if !cut || len(b.slab.words) < 2 {
		return b.Str(s)
	}
	w := b.take(2)
	*(*string)(unsafe.Pointer(&w[0])) = s
	return iface(stringType, unsafe.Pointer(&w[0]))
}

// blockSlice returns a slice of n Ts (8-byte numbers or bools) and its boxed
// interface{} of the type whose type word is typ, the header and the backing
// array taken from the block (as many words as fieldOp.backing counts).
// Past its end both go to the heap.
func blockSlice[T any](b *RecordBuilder, typ unsafe.Pointer, n int) ([]T, interface{}) {
	w := b.take(3 + (n*int(unsafe.Sizeof(*new(T)))+7)/8)
	if w == nil {
		s := make([]T, n)
		return s, boxSlice(b, typ, s)
	}
	h := unsafe.Pointer(&w[0])
	s := unsafe.Slice((*T)(h), 0) // an empty array points at its own header
	if n > 0 {
		s = unsafe.Slice((*T)(unsafe.Pointer(&w[3])), n)
	}
	*(*[]T)(h) = s
	return s, iface(typ, h)
}
