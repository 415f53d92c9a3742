package pbio

import "unsafe"

// A generic Record holds each numeric scalar as an interface{} whose data
// word points at the value, and Go's own conversion gives every such value a
// heap allocation of its own. box points the data word at a word of the
// record's slab instead: one []uint64 per record, and one per array of
// records, sized exactly by the program. reflect cannot do this, because
// Value.Interface copies an addressable value to a fresh box.
//
// The invariant that makes it safe: each slab word is written before its
// interface escapes, and never after. box hands a word out once, writes it,
// and moves the builder past it; nothing else holds the slab. The slab holds
// no pointers, and a pointer into it keeps all of it alive, so one scalar
// kept after its record is dropped keeps that record's slab: 8 bytes per
// numeric scalar.

// eface is the runtime's layout of an interface{}.
type eface struct{ typ, data unsafe.Pointer }

var (
	int64Type   = typeWord(int64(0))
	uint64Type  = typeWord(uint64(0))
	float64Type = typeWord(float64(0))
)

func typeWord(x interface{}) unsafe.Pointer { return (*eface)(unsafe.Pointer(&x)).typ }

// box returns bits as an interface{} of the type whose type word is typ,
// stored in the next word of the slab, or on the heap past its end.
func (b *RecordBuilder) box(typ unsafe.Pointer, bits uint64) (x interface{}) {
	var w *uint64
	if len(b.slab) > 0 {
		w, b.slab = &b.slab[0], b.slab[1:]
	} else {
		w = new(uint64)
	}
	*w = bits
	*(*eface)(unsafe.Pointer(&x)) = eface{typ, unsafe.Pointer(w)}
	return x
}
