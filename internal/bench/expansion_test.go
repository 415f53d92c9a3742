package bench

import (
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlwire"
)

// asdPositionSpec is an Appendix A-style structure from the paper's ATC
// application domain: the all-numeric mix (4-byte counters and unsigned
// measurements) for which the paper claims 6-8x ASCII expansion. The string
// fields of Structure A dilute the ratio (a string is roughly the same size
// in both encodings), so the numeric variant is where the claimed band must
// show.
func asdPositionSpec() []pbio.FieldSpec {
	return []pbio.FieldSpec{
		{Name: "fltNum", Kind: pbio.Int, CType: machine.CInt},
		{Name: "altitude", Kind: pbio.Int, CType: machine.CInt},
		{Name: "groundSpeed", Kind: pbio.Int, CType: machine.CInt},
		{Name: "heading", Kind: pbio.Int, CType: machine.CInt},
		{Name: "squawk", Kind: pbio.Int, CType: machine.CInt},
		{Name: "sectorID", Kind: pbio.Int, CType: machine.CInt},
		{Name: "off", Kind: pbio.Uint, CType: machine.CUInt},
		{Name: "eta", Kind: pbio.Uint, CType: machine.CUInt},
	}
}

func asdPositionRecord() pbio.Record {
	return pbio.Record{
		"fltNum": 1842, "altitude": 35000, "groundSpeed": 441,
		"heading": 278, "squawk": 1200, "sectorID": 38,
		"off": uint64(35000), "eta": uint64(39000),
	}
}

// TestLiveExpansionRatioInPaperBand measures the paper's 6-8x claim on
// the Appendix A-style numeric record: the XML text xmlwire puts on the
// wire against the NDR record pbio encodes, byte for byte.
func TestLiveExpansionRatioInPaperBand(t *testing.T) {
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("ASDPositionEvent", asdPositionSpec())
	if err != nil {
		t.Fatal(err)
	}
	rec := asdPositionRecord()
	ndr, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	xml, err := xmlwire.EncodeRecord(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ndr) != 32 || len(xml) != 212 {
		t.Fatalf("ndr %d B, xml %d B; want 32 and 212", len(ndr), len(xml))
	}
	if ratio := float64(len(xml)) / float64(len(ndr)); ratio < 6 || ratio > 8 {
		t.Fatalf("expansion %.2fx outside the paper's 6-8x band (xml %d B, ndr %d B)", ratio, len(xml), len(ndr))
	}
}

// TestMixedWorkloadExpansionObserved checks the standard size sweep: mixed
// records (strings included) still expand, just below the numeric-only band,
// matching the repo's Table 2 note.
func TestMixedWorkloadExpansionObserved(t *testing.T) {
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	works, err := SizeSweep(ctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range works {
		ndr, err := w.Format.Encode(w.Record)
		if err != nil {
			t.Fatal(err)
		}
		xml, err := xmlwire.EncodeRecord(w.Format, w.Record)
		if err != nil {
			t.Fatal(err)
		}
		if len(xml) < 2*len(ndr) {
			t.Errorf("%s: xml %d B, ndr %d B; want XML text at least 2x NDR", w.Name, len(xml), len(ndr))
		}
	}
}
