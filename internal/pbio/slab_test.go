package pbio_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
	"openmeta/internal/xdr"
	"openmeta/internal/xmlwire"
)

// reboxed copies a decoded value with every scalar in a heap box of its own,
// the way Go's conversion boxes it. reflect.New makes the copy addressable,
// and Interface copies an addressable value; reflect.ValueOf(v).Interface()
// alone would hand back v's own data word.
func reboxed(v interface{}) interface{} {
	switch x := v.(type) {
	case nil:
		return nil
	case pbio.Record:
		out := make(pbio.Record, len(x))
		for k, e := range x {
			out[k] = reboxed(e)
		}
		return out
	case []pbio.Record:
		out := make([]pbio.Record, len(x))
		for i, r := range x {
			out[i] = reboxed(r).(pbio.Record)
		}
		return out
	}
	c := reflect.New(reflect.TypeOf(v)).Elem()
	c.Set(reflect.ValueOf(v))
	return c.Interface()
}

// checkReboxed fails unless rec and its heap-boxed copy agree under
// reflect.DeepEqual, fmt.Sprint and encoding/json. NaN is unequal to itself
// under DeepEqual, so a record that prints one is compared by its printed
// and marshalled forms alone.
func checkReboxed(t testing.TB, what string, rec pbio.Record) {
	t.Helper()
	ref := reboxed(rec).(pbio.Record)
	got, want := fmt.Sprint(rec), fmt.Sprint(ref)
	if got != want {
		t.Fatalf("%s: fmt.Sprint of the decoded record\n%s\ndiffers from its heap-boxed copy\n%s", what, got, want)
	}
	if !strings.Contains(got, "NaN") && !reflect.DeepEqual(rec, ref) {
		t.Fatalf("%s: decoded record is not DeepEqual to its heap-boxed copy", what)
	}
	gj, gerr := json.Marshal(rec)
	wj, werr := json.Marshal(ref)
	if (gerr == nil) != (werr == nil) || string(gj) != string(wj) {
		t.Fatalf("%s: json.Marshal = %s (err %v), heap-boxed copy %s (err %v)", what, gj, gerr, wj, werr)
	}
}

func dataWord(x interface{}) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&x))[1]
}

// TestSlabRecordMatchesHeapBoxed decodes every schema TestCodecOracle
// generates, on every simulated architecture, with each of the three decoders
// that box through pbio.RecordBuilder, and holds the slab-backed record to
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
			decoders := []struct {
				name   string
				encode func(*pbio.Format, pbio.Record) ([]byte, error)
				decode func(*pbio.Format, []byte) (pbio.Record, error)
			}{
				{"ndr", func(f *pbio.Format, r pbio.Record) ([]byte, error) { return f.Encode(r) },
					func(f *pbio.Format, b []byte) (pbio.Record, error) { return f.Decode(b) }},
				{"xdr", xdr.EncodeRecord, xdr.DecodeRecord},
				{"xml", xmlwire.EncodeRecord, xmlwire.DecodeRecord},
			}
			for _, c := range decoders {
				what := fmt.Sprintf("seed %d %s %s", seed, name, c.name)
				data, err := c.encode(f, want)
				if err != nil {
					t.Fatalf("%s: encode: %v", what, err)
				}
				rec, err := c.decode(f, data)
				if err != nil {
					t.Fatalf("%s: decode: %v", what, err)
				}
				checkReboxed(t, what, rec)
				if !reflect.DeepEqual(rec, want) {
					t.Fatalf("%s: decoded %v, want %v", what, rec, want)
				}
			}
		}
	}
	// The reference is a real copy: a re-boxed scalar has a data word of
	// its own.
	x := pbio.Record{"v": (&pbio.RecordBuilder{}).Float(1.5)}
	if dataWord(x["v"]) == dataWord(reboxed(x).(pbio.Record)["v"]) {
		t.Fatal("reboxed shares the decoded value's data word")
	}
}

// TestSlabScalarOutlivesRecord keeps one scalar of a decoded record and
// drops the rest. Its slab must stay alive, and unchanged, through
// collections that recycle memory of the slab's size class and through later
// decodes of other values.
func TestSlabScalarOutlivesRecord(t *testing.T) {
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	var specs []pbio.FieldSpec
	rec := pbio.Record{}
	for i := 0; i < 16; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("d%d", i), Kind: pbio.Float, CType: machine.CDouble})
		rec[fmt.Sprintf("d%d", i)] = 1000.125 + float64(i)
	}
	f, err := ctx.RegisterSpec("Kept", specs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	for k := range rec {
		rec[k] = -1.0
	}
	other, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	kept := func() interface{} {
		got, err := f.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return got["d7"]
	}()
	var sink [][]uint64
	for i := 0; i < 20; i++ {
		runtime.GC()
		for j := 0; j < 1000; j++ {
			g := make([]uint64, len(specs))
			for k := range g {
				g[k] = ^uint64(0)
			}
			sink = append(sink, g)
		}
		sink = nil
		if _, err := f.Decode(other); err != nil {
			t.Fatal(err)
		}
	}
	if kept != 1007.125 {
		t.Fatalf("kept scalar reads %v after collections, want 1007.125", kept)
	}
}
