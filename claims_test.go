package openmeta

import (
	"testing"
	"time"

	"openmeta/internal/bench"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xdr"
)

// The paper's quantitative claims, one test each: every assertion is on a
// unit that repeats (bytes, allocations, op counts), and any time is logged
// beside it, never asserted.

// decodeTime returns the mean time of one call of decode, over at least
// 20 ms of calls.
func decodeTime(t *testing.T, decode func() error) time.Duration {
	t.Helper()
	start, n := time.Now(), 0
	for time.Since(start) < 20*time.Millisecond {
		if err := decode(); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// TestClaimNDRDecodeAllocatesNoMoreThanXDR is the allocation half of Tables
// 2-3's NDR-against-XDR row: on Table 2's records, from 100 B to 100 KB, a
// generic NDR decode allocates no more than an XDR decode of the same record.
func TestClaimNDRDecodeAllocatesNoMoreThanXDR(t *testing.T) {
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	works, err := bench.SizeSweep(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range works {
		ndr, err := w.Format.Encode(w.Record)
		if err != nil {
			t.Fatal(err)
		}
		x, err := xdr.EncodeRecord(w.Format, w.Record)
		if err != nil {
			t.Fatal(err)
		}
		decodeNDR := func() error { _, err := w.Format.Decode(ndr); return err }
		decodeXDR := func() error { _, err := xdr.DecodeRecord(w.Format, x); return err }
		if err := decodeNDR(); err != nil {
			t.Fatal(err)
		}
		if err := decodeXDR(); err != nil {
			t.Fatal(err)
		}
		na := testing.AllocsPerRun(20, func() { _ = decodeNDR() })
		xa := testing.AllocsPerRun(20, func() { _ = decodeXDR() })
		t.Logf("%s: NDR decode %v allocations, %v; XDR decode %v allocations, %v",
			w.Name, na, decodeTime(t, decodeNDR), xa, decodeTime(t, decodeXDR))
		if na > xa {
			t.Errorf("%s: NDR decode allocates %v, more than XDR's %v", w.Name, na, xa)
		}
	}
}
