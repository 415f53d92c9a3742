package pbio

import "math"

// A RecordBuilder makes the values of the generic Records that the NDR, XDR
// and XML-text decoders return, so that the three build the same record the
// same way and differ only in how they read bytes: a map presized to the
// format's fields, bools in the runtime's static boxes, and numeric scalars,
// strings and array headers boxed from memory the builder owns (slab.go).
// Format.Decode takes them from one block per record; the exported methods
// box from one slab per kind, which Begin sizes. The zero value is ready for
// use; a builder makes one record and is then dropped.
type RecordBuilder struct {
	slab Slab // the slots of the current slabs (or block) not yet handed out
}

// Slab is a record's slabs: one per kind of boxed value, each sized by the
// program. A kind the format has no value of takes no allocation.
type Slab struct {
	words  []uint64 // numeric scalars; for Format.Decode, the block's words
	strs   []string // string headers
	slices [][]byte // slice headers of every element type (slab.go)
}

// Begin starts the slabs that the values of n records of format f are boxed
// from: a decode begins them for its root record (n = 1) and for the
// elements of each array of records. It returns what was left of the slabs
// it replaces, for End to restore once those n records are built.
func (b *RecordBuilder) Begin(f *Format, n int) Slab {
	p, outer := f.compiled(), b.slab
	b.slab = Slab{
		words:  make([]uint64, n*p.scalars),
		strs:   make([]string, n*p.strs),
		slices: make([][]byte, n*p.slices),
	}
	return outer
}

// End puts back the slabs that Begin replaced.
func (b *RecordBuilder) End(outer Slab) { b.slab = outer }

// Record returns the map of one record of format f.
func (b *RecordBuilder) Record(f *Format) Record { return make(Record, len(f.Fields)) }

// Int, Uint and Float box a numeric scalar in the next word of the slab.
// Past its end (a document with more scalars than its format, which the
// decoder rejects) they box on the heap, as do Str and the array boxes.
func (b *RecordBuilder) Int(v int64) interface{} { return b.box(int64Type, uint64(v)) }

func (b *RecordBuilder) Uint(v uint64) interface{} { return b.box(uint64Type, v) }

func (b *RecordBuilder) Float(v float64) interface{} {
	return b.box(float64Type, math.Float64bits(v))
}

// Bool boxes v in the runtime's static box for it, which costs nothing.
func (b *RecordBuilder) Bool(v bool) interface{} { return v }

// Ints, Uints, Floats, Bools, Strings and Records box an array value in the
// next header of the slice slab.
func (b *RecordBuilder) Ints(s []int64) interface{} { return boxSlice(b, int64sType, s) }

func (b *RecordBuilder) Uints(s []uint64) interface{} { return boxSlice(b, uint64sType, s) }

func (b *RecordBuilder) Floats(s []float64) interface{} { return boxSlice(b, float64sType, s) }

func (b *RecordBuilder) Bools(s []bool) interface{} { return boxSlice(b, boolsType, s) }

func (b *RecordBuilder) Strings(s []string) interface{} { return boxSlice(b, stringsType, s) }

func (b *RecordBuilder) Records(s []Record) interface{} { return boxSlice(b, recordsType, s) }
