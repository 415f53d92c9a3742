package pbio_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
	"openmeta/internal/xdr"
	"openmeta/internal/xmlwire"
)

// codecs are the three decoders whose records pbio.RecordBuilder makes, each
// with its encoder.
var codecs = []struct {
	name   string
	encode func(*pbio.Format, pbio.Record) ([]byte, error)
	decode func(*pbio.Format, []byte) (pbio.Record, error)
}{
	{"ndr", (*pbio.Format).Encode, (*pbio.Format).Decode},
	{"xdr", xdr.EncodeRecord, xdr.DecodeRecord},
	{"xml", xmlwire.EncodeRecord, xmlwire.DecodeRecord},
}

// blockFormat has a value of every kind a block holds, and of the two array
// kinds it does not: numbers, strings, a dynamic []float64, a []bool, a
// []int64, a []string and an array of nested records with strings of their
// own.
func blockFormat(t *testing.T) (*pbio.Format, pbio.Record) {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterSpec("BlockInner", []pbio.FieldSpec{
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "s", Kind: pbio.String},
		{Name: "v", Kind: pbio.Uint, CType: machine.CUInt, Dynamic: true, CountField: "v_count"},
		{Name: "v_count", Kind: pbio.Int, CType: machine.CInt},
	}); err != nil {
		t.Fatal(err)
	}
	specs := []pbio.FieldSpec{
		{Name: "arr", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "arr_count"},
		{Name: "arr_count", Kind: pbio.Int, CType: machine.CInt},
		{Name: "flags", Kind: pbio.Bool, CType: machine.CChar, Count: 5},
		{Name: "ia", Kind: pbio.Int, CType: machine.CShort, Count: 3},
		{Name: "names", Kind: pbio.String, Count: 3},
		{Name: "kids", Kind: pbio.Nested, NestedName: "BlockInner", Dynamic: true, CountField: "kids_count"},
		{Name: "kids_count", Kind: pbio.Int, CType: machine.CInt},
	}
	rec := pbio.Record{
		"arr":   []float64{0.5, 1.5, 2.5, 3.5},
		"flags": []bool{true, false, true, true, false},
		"ia":    []int64{7, -8, 9},
		"names": []string{"first name kept", "", "third name kept"},
		"kids": []pbio.Record{
			{"n": int64(-1000), "s": "kid string zero", "v": []uint64{4000000000, 1}},
			{"n": int64(1000), "s": "", "v": []uint64{}},
		},
	}
	for i := 0; i < 6; i++ {
		specs = append(specs,
			pbio.FieldSpec{Name: fmt.Sprintf("d%d", i), Kind: pbio.Float, CType: machine.CDouble},
			pbio.FieldSpec{Name: fmt.Sprintf("s%d", i), Kind: pbio.String})
		rec[fmt.Sprintf("d%d", i)] = 1000.125 + float64(i)
		rec[fmt.Sprintf("s%d", i)] = fmt.Sprintf("kept string number %d", i)
	}
	f, err := ctx.RegisterSpec("Block", specs)
	if err != nil {
		t.Fatal(err)
	}
	return f, rec
}

// garbage allocates and drops memory filled with ones, of every size class
// up to 1 KiB and of the given sizes, so that a freed object of any of those
// size classes is overwritten.
func garbage(sizes ...int) {
	for n := 8; n <= 1024; n += 8 {
		sizes = append(sizes, n)
	}
	var sink [][]byte
	for j := 0; j < 8; j++ {
		for _, n := range sizes {
			g := make([]byte, n)
			for k := range g {
				g[k] = 0xff
			}
			sink = append(sink, g)
		}
	}
	runtime.KeepAlive(sink)
}

// TestBlockValuesOutliveRecord keeps a number, a string, a []float64, a
// []bool or a []string of a record decoded by each codec, one at a time, and
// drops the rest. The block it points into must stay alive, and unchanged,
// through collections that recycle memory of the block's size class and
// through 100 later decodes of other values.
func TestBlockValuesOutliveRecord(t *testing.T) {
	f, rec := blockFormat(t)
	ndr, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	words, text := pbio.Need(f, ndr)
	other := pbio.Record{}
	for k, v := range rec {
		switch v.(type) {
		case float64:
			other[k] = -1.0
		case string:
			other[k] = "lost string number x"
		}
	}
	other["arr"], other["flags"] = []float64{-1, -1, -1, -1}, []bool{false, true, false, false, true}
	other["names"] = []string{"lost name number 1", "x", "lost name number 3"}
	for _, c := range codecs {
		data, err := c.encode(f, rec)
		if err != nil {
			t.Fatal(err)
		}
		otherData, err := c.encode(f, other)
		if err != nil {
			t.Fatal(err)
		}
		// XDR counts its block as NDR does; XML text's holds a word per tag
		// and a copy of the document.
		size := 8 * (words + (text+7)/8)
		if c.name == "xml" {
			size = 8 * (bytes.Count(data, []byte("<")) + (len(data)+7)/8)
		}
		for _, key := range []string{"d3", "s2", "arr", "flags", "names"} {
			var kept interface{}
			func() {
				got, err := c.decode(f, data)
				if err != nil {
					t.Fatal(err)
				}
				kept = got[key]
			}()
			for i := 0; i < 100; i++ {
				runtime.GC()
				garbage(size)
				if _, err := c.decode(f, otherData); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(kept, rec[key]) {
				t.Errorf("%s: kept %s reads %v after collections, want %v", c.name, key, kept, rec[key])
			}
		}
	}
}

// TestBlockArrayAppendLeavesRecord holds the numeric and bool arrays of a
// record decoded by each codec: each has cap == len, so an append to it
// moves it to fresh memory and leaves every other value of the record as it
// was.
func TestBlockArrayAppendLeavesRecord(t *testing.T) {
	f, rec := blockFormat(t)
	for _, c := range codecs {
		data, err := c.encode(f, rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.decode(f, data)
		if err != nil {
			t.Fatal(err)
		}
		before := testutil.Reboxed(got).(pbio.Record)
		kid := got["kids"].([]pbio.Record)[0]
		checkAppend(t, c.name+" arr", got["arr"].([]float64), 99)
		checkAppend(t, c.name+" flags", got["flags"].([]bool), true)
		checkAppend(t, c.name+" ia", got["ia"].([]int64), 99)
		checkAppend(t, c.name+" kids[0].v", kid["v"].([]uint64), 99)
		if !reflect.DeepEqual(got, before) {
			t.Errorf("%s: appending to the record's arrays changed it:\n%v\nwant\n%v", c.name, got, before)
		}
		testutil.CheckReboxed(t, c.name+" after appends", got)
	}
}

// checkAppend checks that s has cap == len and that appending v to it moves
// it.
func checkAppend[T any](t *testing.T, name string, s []T, v T) {
	t.Helper()
	if cap(s) != len(s) {
		t.Errorf("%s: cap %d, len %d; a decoded array must have cap == len", name, cap(s), len(s))
	}
	if a := append(s, v); unsafe.SliceData(a) == unsafe.SliceData(s) {
		t.Errorf("%s: append wrote in place", name)
	}
}

// TestBlockShortFallsBackToHeap decodes a record from every block shorter
// than the pre-pass counts, as an under-count would leave it, and XML text
// whose empty dynamic arrays have counts but no tags to bound their words by.
// The values the walk makes past the block's end go to memory the collector
// scans: after collections that recycle every small size class, each record
// still equals its heap-boxed copy. A value kept only by a header in the
// block would have been freed and overwritten.
func TestBlockShortFallsBackToHeap(t *testing.T) {
	f, rec := blockFormat(t)
	data, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	words, text := pbio.Need(f, data)
	var got, wants []pbio.Record
	var what []string
	for w := 0; w <= words; w++ {
		for _, x := range []int{0, 1, text / 2, text - 1, text} {
			if w == words && x == text {
				continue
			}
			r, err := pbio.DecodeWithin(f, data, w, x)
			if err != nil {
				t.Fatalf("block of %d words and %d text bytes: %v", w, x, err)
			}
			got, wants = append(got, r), append(wants, want)
			what = append(what, fmt.Sprintf("block of %d of %d words and %d of %d text bytes", w, words, x, text))
		}
	}
	ef, erec := emptyArraysFormat(t)
	doc, err := xmlwire.EncodeRecord(ef, erec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r, err := xmlwire.DecodeRecord(ef, doc)
		if err != nil {
			t.Fatal(err)
		}
		got, wants = append(got, r), append(wants, erec)
		what = append(what, fmt.Sprintf("XML text %s, decode %d", doc, i))
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		garbage()
	}
	for i, r := range got {
		testutil.CheckReboxed(t, what[i], r)
		if !reflect.DeepEqual(r, wants[i]) {
			t.Fatalf("%s: decoded %v, want %v", what[i], r, wants[i])
		}
	}
}

// emptyArraysFormat has two strings and six dynamic arrays. Their record's
// XML text, with the arrays empty, has six tags, so its block has six words.
// String a has a reference to expand, so it is not in the block; b takes two
// words and the counts the other four, so two counts run past the block.
func emptyArraysFormat(t *testing.T) (*pbio.Format, pbio.Record) {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	specs := []pbio.FieldSpec{{Name: "a", Kind: pbio.String}, {Name: "b", Kind: pbio.String}}
	rec := pbio.Record{"a": "kept a < b", "b": "kept b"}
	for _, name := range []string{"u", "v", "w", "x", "y", "z"} {
		specs = append(specs,
			pbio.FieldSpec{Name: name, Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: name + "_n"},
			pbio.FieldSpec{Name: name + "_n", Kind: pbio.Int, CType: machine.CInt})
		rec[name], rec[name+"_n"] = []float64{}, int64(0)
	}
	f, err := ctx.RegisterSpec("E", specs)
	if err != nil {
		t.Fatal(err)
	}
	return f, rec
}
