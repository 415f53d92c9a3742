package pbio_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

func dataWord(x interface{}) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&x))[1]
}

// TestSlabRecordMatchesHeapBoxed decodes every schema TestCodecOracle
// generates, on every simulated architecture, with each of the three decoders
// that box through pbio.RecordBuilder, and holds the block-backed record to
// its heap-boxed copy.
func TestSlabRecordMatchesHeapBoxed(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= seeds; seed++ {
		schema := testutil.NewGenSchema(seed)
		for _, name := range machine.ArchNames() {
			arch, err := machine.ArchByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := pbio.NewContext(arch)
			if err != nil {
				t.Fatal(err)
			}
			f, err := schema.Register(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := schema.Value(seed)
			for _, c := range codecs {
				what := fmt.Sprintf("seed %d %s %s", seed, name, c.name)
				data, err := c.encode(f, want)
				if err != nil {
					t.Fatalf("%s: encode: %v", what, err)
				}
				rec, err := c.decode(f, data)
				if err != nil {
					t.Fatalf("%s: decode: %v", what, err)
				}
				testutil.CheckReboxed(t, what, rec)
				if !reflect.DeepEqual(rec, want) {
					t.Fatalf("%s: decoded %v, want %v", what, rec, want)
				}
			}
		}
	}
	// The reference is a real copy: a re-boxed number, string or array has a
	// data word of its own.
	f, rec := blockFormat(t)
	data, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ref := testutil.Reboxed(x).(pbio.Record)
	for _, k := range []string{"d0", "s0", "ia"} {
		if dataWord(x[k]) == dataWord(ref[k]) {
			t.Fatalf("Reboxed shares the data word of the decoded value %q", k)
		}
	}
}

// TestSlabScalarOutlivesRecord keeps a number, a string and an array of a
// decoded record and drops the rest. The record's block, which holds all
// three, must stay alive, and unchanged, through collections that recycle
// memory of the old per-kind slabs' size classes and through 100 later
// decodes of other values.
func TestSlabScalarOutlivesRecord(t *testing.T) {
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	specs := []pbio.FieldSpec{
		{Name: "arr", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "arr_count"},
		{Name: "arr_count", Kind: pbio.Int, CType: machine.CInt},
		{Name: "ia", Kind: pbio.Int, CType: machine.CInt, Count: 3},
	}
	rec := pbio.Record{"arr": []float64{0.5, 1.5, 2.5}, "ia": []int64{7, 8, 9}}
	for i := 0; i < 16; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("d%d", i), Kind: pbio.Float, CType: machine.CDouble})
		rec[fmt.Sprintf("d%d", i)] = 1000.125 + float64(i)
	}
	for i := 0; i < 4; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("s%d", i), Kind: pbio.String})
		rec[fmt.Sprintf("s%d", i)] = fmt.Sprintf("kept string %d", i)
	}
	f, err := ctx.RegisterSpec("Kept", specs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range rec {
		switch v.(type) {
		case float64:
			rec[k] = -1.0
		case string:
			rec[k] = "lost string x"
		}
	}
	rec["arr"], rec["ia"] = []float64{-1, -1, -1}, []int64{-1, -1, -1}
	other, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	var num, str, arr interface{}
	func() {
		got, err := f.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		num, str, arr = got["d7"], got["s2"], got["arr"]
	}()
	// Garbage of each slab's size: 17 numeric words, 4 string headers and
	// 2 slice headers.
	var sink [][]uint64
	for i := 0; i < 100; i++ {
		runtime.GC()
		for j := 0; j < 300; j++ {
			for _, n := range []int{17, 8, 6} {
				g := make([]uint64, n)
				for k := range g {
					g[k] = ^uint64(0)
				}
				sink = append(sink, g)
			}
		}
		sink = nil
		if _, err := f.Decode(other); err != nil {
			t.Fatal(err)
		}
	}
	if num != 1007.125 {
		t.Errorf("kept number reads %v after collections, want 1007.125", num)
	}
	if str != "kept string 2" {
		t.Errorf("kept string reads %q after collections, want %q", str, "kept string 2")
	}
	if !reflect.DeepEqual(arr, []float64{0.5, 1.5, 2.5}) {
		t.Errorf("kept array reads %v after collections, want [0.5 1.5 2.5]", arr)
	}
}
