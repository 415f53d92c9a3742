package pbio

import "unsafe"

// A generic Record holds each numeric scalar, string and array as an
// interface{} whose data word points at the value (a number, a string header
// or a slice header), and Go's own conversion gives every such value a heap
// allocation of its own. The builder points the data word into memory it
// owns instead. reflect cannot do this: Value.Interface copies to a new box.
//
// A decode takes a record's values from one block, a []uint64 of words and
// then text bytes, which its decoder sizes: its numeric scalars, its
// strings' headers and bytes, and the headers and backing arrays of its
// numeric and bool arrays. A []uint64 is noscan, so the collector never
// looks inside the block, and the invariant is: a header may be written into
// the block only if what it points at is inside the same block. The builder
// checks that by address, against the block's range, when it boxes a string;
// an array it boxes in the block has its backing taken from the block with
// it. Everything else goes to memory the collector scans: a value past the
// block's end (a block sized short), a string whose bytes are elsewhere (an
// XML value with expanded references, or a join of split text), every
// []string and []Record with its header, since a caller may store any
// string in a []string it holds and a []Record holds maps, and XML text's
// arrays, which grow by append. A block array has cap == len, so an append
// to it copies.
//
// Each word of a block is written before its interface escapes and never
// after. A pointer into a block keeps all of it alive: a value kept after
// its record is dropped keeps the record's whole block, about its decoded
// size.

// eface is the runtime's layout of an interface{}.
type eface struct{ typ, data unsafe.Pointer }

var (
	int64Type   = typeWord(int64(0))
	uint64Type  = typeWord(uint64(0))
	float64Type = typeWord(float64(0))
	stringType  = typeWord("")
)

func typeWord(x interface{}) unsafe.Pointer { return (*eface)(unsafe.Pointer(&x)).typ }

// iface returns the interface{} whose type word is typ and whose data word
// is p.
func iface(typ, p unsafe.Pointer) (x interface{}) {
	*(*eface)(unsafe.Pointer(&x)) = eface{typ, p}
	return x
}

// Start allocates the record's block: words for numbers and headers, then
// text bytes for strings.
func (b *RecordBuilder) Start(words, text int) {
	b.blk = make([]uint64, words+(text+7)/8)
	b.words = b.blk[:words]
	if text > 0 {
		b.text = unsafe.Slice((*byte)(unsafe.Pointer(&b.blk[words])), text)
	}
}

// inBlock reports whether p points into the block.
func (b *RecordBuilder) inBlock(p unsafe.Pointer) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b.blk)))
	return uintptr(p)-lo < uintptr(len(b.blk))*8
}

// take hands out the next n words of the block, or nil if fewer are left.
func (b *RecordBuilder) take(n int) []uint64 {
	if len(b.words) < n {
		return nil
	}
	w := b.words[:n:n]
	b.words = b.words[n:]
	return w
}

// box returns bits as an interface{} of the type whose type word is typ,
// stored in the next word of the block.
func (b *RecordBuilder) box(typ unsafe.Pointer, bits uint64) interface{} {
	w := b.take(1)
	if w == nil {
		w = make([]uint64, 1)
	}
	w[0] = bits
	return iface(typ, unsafe.Pointer(&w[0]))
}

// Text returns raw as a string cut from the block's text, or copied to the
// heap past its end.
func (b *RecordBuilder) Text(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	if len(raw) > len(b.text) {
		return string(raw)
	}
	s := unsafe.String(&b.text[0], copy(b.text, raw))
	b.text = b.text[len(raw):]
	return s
}

// Str boxes s with its header in the next two words of the block if its
// bytes are in the block (cut by Text), and on the heap if not.
func (b *RecordBuilder) Str(s string) interface{} {
	if s == "" || !b.inBlock(unsafe.Pointer(unsafe.StringData(s))) {
		return s // "" is the runtime's static box
	}
	w := b.take(2)
	if w == nil {
		return s
	}
	*(*string)(unsafe.Pointer(&w[0])) = s
	return iface(stringType, unsafe.Pointer(&w[0]))
}

// BlockWords is the words of a record's block that a value of the field
// takes with n elements (1 for a scalar): a number 1, a string's header 2,
// a numeric or bool array its header and backing array. A bool, a []string
// and a []Record take none, and a nested record's values count as its own
// fields do.
func (fl *Field) BlockWords(n int) int {
	return blockWords(fl.Kind, fl.Dynamic || fl.Count > 1, n)
}

func blockWords(k Kind, array bool, n int) int {
	switch {
	case k == Nested, k == Bool && !array, k == String && array:
		return 0
	case k == Bool:
		return arrayWords(n, 1)
	case array:
		return arrayWords(n, 8)
	case k == String:
		return 2
	}
	return 1
}

// arrayWords is the words of a block that an array of n elements of size
// bytes takes: its header, then its backing array.
func arrayWords(n, size int) int { return 3 + (n*size+7)/8 }

// Array returns a slice of n Ts (8-byte numbers or bools) and its boxed
// interface{}, the header and the backing array taken from the block, as
// many words as Field.BlockWords counts.
func Array[T int64 | uint64 | float64 | bool](b *RecordBuilder, n int) ([]T, interface{}) {
	w := b.take(arrayWords(n, int(unsafe.Sizeof(*new(T)))))
	if w == nil {
		s := make([]T, n)
		return s, s
	}
	h := unsafe.Pointer(&w[0])
	s := unsafe.Slice((*T)(h), 0) // an empty array points at its own header
	if n > 0 {
		s = unsafe.Slice((*T)(unsafe.Pointer(&w[3])), n)
	}
	*(*[]T)(h) = s
	return s, iface(typeWord([]T(nil)), h)
}
