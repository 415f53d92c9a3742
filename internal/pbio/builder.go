package pbio

import "math"

// A RecordBuilder makes the values of the generic Records that the NDR, XDR
// and XML-text decoders return, so that the three build the same record the
// same way and differ only in how they read bytes: a map presized to the
// format's fields, bools in the runtime's static boxes, and numeric scalars,
// strings and numeric and bool arrays in one block per record (slab.go).
// Each decoder sizes its block and hands the sizes to Start: NDR and XDR
// count them in a pre-pass, XML text bounds them by its format or tags.
// A builder makes one record and is then dropped.
type RecordBuilder struct {
	blk   []uint64 // the record's block
	words []uint64 // its words not yet handed out
	text  []byte   // its text bytes not yet cut
}

// Record returns the map of one record of format f.
func (b *RecordBuilder) Record(f *Format) Record { return make(Record, len(f.Fields)) }

// Int, Uint and Float box a numeric scalar in the next word of the block.
// Past its end they box on the heap, as do Str and Array.
func (b *RecordBuilder) Int(v int64) interface{} { return b.box(int64Type, uint64(v)) }

func (b *RecordBuilder) Uint(v uint64) interface{} { return b.box(uint64Type, v) }

func (b *RecordBuilder) Float(v float64) interface{} {
	return b.box(float64Type, math.Float64bits(v))
}
