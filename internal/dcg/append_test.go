package dcg

import (
	"bytes"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// TestAppendConvertBehindFullPrefix: converting into a buffer that holds a
// prefix and has no room left costs one allocation, sized exactly for prefix
// and record, so a frame header and the converted record it carries can be
// built as one image.
func TestAppendConvertBehindFullPrefix(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	src, dst := structureBQuick(machine.Sparc), structureBQuick(machine.X86_64)
	record, err := src.Encode(pbio.Record{"cntrID": "ZTL", "fltNum": 9, "eta": []uint64{4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Convert(record)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("header")
	var got []byte
	allocs := testing.AllocsPerRun(100, func() {
		if got, err = plan.AppendConvert(prefix[:len(prefix):len(prefix)], record); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("AppendConvert behind a full prefix: %.2f allocations, want 1", allocs)
	}
	if !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
		t.Errorf("got %x, want the prefix and then %x", got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("allocated %d bytes for a %d-byte result", cap(got), len(got))
	}
}

// TestAppendConvertCtxRecordsSpan: a sampled context records the conversion
// as a dcg.convert child span naming the format pair; an unsampled one
// records nothing.
func TestAppendConvertCtxRecordsSpan(t *testing.T) {
	src, dst := structureBQuick(machine.Sparc), structureBQuick(machine.X86_64)
	record, err := src.Encode(pbio.Record{"fltNum": 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0, 16)
	if _, err := plan.AppendConvertCtx(trace.Ctx{}, nil, record); err != nil {
		t.Fatal(err)
	}
	if _, n := tr.Spans(); n != 0 {
		t.Fatalf("unsampled conversion recorded %d spans", n)
	}
	tr.SetSampling(1)
	root := tr.Start(trace.KindRoute)
	if _, err := plan.AppendConvertCtx(root, []byte("prefix"), record); err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.Spans()
	if len(spans) != 1 || spans[0].Name != "dcg.convert" || spans[0].Parent != root.Span() ||
		spans[0].Detail != "ASDOffEvent->ASDOffEvent" {
		t.Fatalf("spans = %+v, want one dcg.convert under the route", spans)
	}
}
