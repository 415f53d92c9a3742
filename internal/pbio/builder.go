package pbio

import (
	"math"
	"strings"
)

// A RecordBuilder makes the values of the generic Records that the NDR, XDR
// and XML-text decoders return, so that the three build the same record the
// same way and differ only in how they read bytes: a map presized to the
// format's fields, numeric scalars boxed from one slab per record (slab.go),
// bools in the runtime's static boxes and, for NDR, every string of a record
// cut from one arena. The zero value is ready for use; a builder makes one
// record and is then dropped.
type RecordBuilder struct {
	slab []uint64        // the words of the current slab not yet handed out
	strs strings.Builder // NDR: the record's string bytes, grown once to their total
}

// Slab is what was left of a slab when Begin replaced it.
type Slab struct{ words []uint64 }

// Begin starts the slab that the numeric scalars of n records of format f
// are boxed from: a decode begins one for its root record (n = 1) and one for
// the elements of each array of records. It returns what was left of the
// slab it replaces, for End to restore once those n records are built.
func (b *RecordBuilder) Begin(f *Format, n int) Slab { return b.begin(f.compiled(), n) }

func (b *RecordBuilder) begin(p *program, n int) Slab {
	outer := Slab{b.slab}
	b.slab = make([]uint64, n*p.scalars)
	return outer
}

// End puts back the slab that Begin replaced.
func (b *RecordBuilder) End(outer Slab) { b.slab = outer.words }

// Record returns the map of one record of format f.
func (b *RecordBuilder) Record(f *Format) Record { return make(Record, len(f.Fields)) }

// Int, Uint and Float box a numeric scalar in the next word of the slab.
// Past its end (a document with more scalars than its format, which the
// decoder rejects) they box on the heap.
func (b *RecordBuilder) Int(v int64) interface{} { return b.box(int64Type, uint64(v)) }

func (b *RecordBuilder) Uint(v uint64) interface{} { return b.box(uint64Type, v) }

func (b *RecordBuilder) Float(v float64) interface{} {
	return b.box(float64Type, math.Float64bits(v))
}

// Bool boxes v in the runtime's static box for it, which costs nothing.
func (b *RecordBuilder) Bool(v bool) interface{} { return v }

// cut returns raw as a string cut from the arena.
func (b *RecordBuilder) cut(raw []byte) string {
	start := b.strs.Len()
	b.strs.Write(raw)
	return b.strs.String()[start:]
}
