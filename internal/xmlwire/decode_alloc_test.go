package xmlwire_test

// An external test package: internal/bench, whose records Table 2 decodes,
// imports xmlwire.

import (
	"testing"

	"openmeta/internal/bench"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlwire"
)

// TestDecodeRecordAllocations pins the XML-text decoder on Table 2's records
// to one pass that allocates per field, not per element: the 100 KB record
// has ten times the 10 KB record's array elements and may cost only the
// extra growth of that one slice. Its record is made by pbio.RecordBuilder,
// so its numeric scalars and strings take one block, which also holds the
// copy of the document that the tokenizer reads. Boxing from one slab per
// kind took 11 / 20 / 24 / 33, boxing only the numeric scalars from a slab
// 12 / 23 / 31 / 40, boxing each value 19 / 42 / 71 / 80, and parsing into a
// DOM and walking it 81 / 678 / 6,331 / 62,847. The 100 KB count reads 30 or
// 31 from run to run.
func TestDecodeRecordAllocations(t *testing.T) {
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	works, err := bench.SizeSweep(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	limits := map[string]float64{"mixed100B": 9, "mixed1KB": 18, "mixed10KB": 22, "mixed100KB": 31}
	got := map[string]float64{}
	for _, w := range works {
		text, err := xmlwire.EncodeRecord(w.Format, w.Record)
		if err != nil {
			t.Fatal(err)
		}
		got[w.Name] = testing.AllocsPerRun(20, func() {
			if _, err := xmlwire.DecodeRecord(w.Format, text); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations to decode %d bytes", w.Name, got[w.Name], len(text))
		if got[w.Name] > limits[w.Name] {
			t.Errorf("%s: %.0f allocations, want at most %.0f", w.Name, got[w.Name], limits[w.Name])
		}
	}
	if extra := got["mixed100KB"] - got["mixed10KB"]; extra > 9 {
		t.Errorf("mixed100KB takes %.0f more allocations than mixed10KB, want at most 9", extra)
	}
}
