package xdr_test

// An external test package: internal/bench, whose records Table 2 decodes,
// imports xdr.

import (
	"testing"

	"openmeta/internal/bench"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xdr"
)

// TestXDRDecodeAllocations pins the XDR decoder on Table 2's records, the
// ones xmlwire's TestDecodeRecordAllocations and pbio's
// TestFormatDecodeAllocations pin. Its record is made by the same
// pbio.RecordBuilder as Format.Decode's, from one block that a pre-pass sizes
// exactly, so it allocates what NDR's does: the map and the block.
func TestXDRDecodeAllocations(t *testing.T) {
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	works, err := bench.SizeSweep(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Boxing from three per-kind slabs, with two allocations per string,
	// took 10 / 16 / 24 / 24; boxing only the numeric scalars from a slab
	// 11 / 19 / 31 / 31; boxing every array element through interface{}
	// 18 / 138 / 1,271 / 12,571.
	want := map[string]float64{"mixed100B": 5, "mixed1KB": 5, "mixed10KB": 5, "mixed100KB": 5}
	for _, w := range works {
		data, err := xdr.EncodeRecord(w.Format, w.Record)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := xdr.DecodeRecord(w.Format, data); err != nil {
				t.Fatal(err)
			}
		})
		if got != want[w.Name] {
			t.Errorf("%s: xdr.DecodeRecord = %v allocations, want %v", w.Name, got, want[w.Name])
		}
	}
}
