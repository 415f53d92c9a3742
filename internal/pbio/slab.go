package pbio

import "unsafe"

// A generic Record holds each numeric scalar, string and array as an
// interface{} whose data word points at the value (a number, a string header
// or a slice header), and Go's own conversion gives every such value a heap
// allocation of its own. The builder points the data word into the record's
// slabs instead: one []uint64 for the numbers, one []string for the string
// headers and one [][]byte for the slice headers, per record and per array of
// records, each sized exactly by the program. reflect cannot do this, because
// Value.Interface copies an addressable value to a fresh box.
//
// The slice slab holds headers of every element type. All slice headers
// share one layout, a data pointer and then two ints, so the collector scans
// a []int64 written in a []byte slot as it scans the []byte: what it needs is
// the pointer in word 0, not the type it points at.
//
// The invariant that makes it safe: each slot is written before its
// interface escapes, and never after. A box hands a slot out once, writes it,
// and moves the builder past it; nothing else holds the slab. A pointer into
// a slab keeps all of it alive, so a value kept after its record is dropped
// keeps its kind's slab, and with it what that slab points at: a number
// keeps 8 bytes per numeric scalar; a string keeps 16 bytes per string and
// every string of the record; an array keeps 24 bytes per array and every
// array of the record.

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
// stored in the next word of the numeric slab.
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
