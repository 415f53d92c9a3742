package openmeta

import (
	"bytes"
	"fmt"
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

// TestClaimMetadataOncePerConnection is Table 7 in exact bytes: a
// connection carries a format's metadata frame before the first record of
// that format and never again, so each later record costs its frame alone.
// Sending the metadata with every record would add the tax to each one.
func TestClaimMetadataOncePerConnection(t *testing.T) {
	want := map[string]struct {
		frame, meta int
		tax         string
	}{
		"mixed100B":  {95, 290, "+305.3%"},
		"mixed1KB":   {1053, 694, "+65.9%"},
		"mixed10KB":  {10197, 1315, "+12.9%"},
		"mixed100KB": {100597, 1316, "+1.3%"},
	}
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	works, err := bench.SizeSweep(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range works {
		data, err := w.Format.Encode(w.Record)
		if err != nil {
			t.Fatal(err)
		}
		var conn bytes.Buffer
		pw := pbio.NewWriter(&conn)
		var sizes []int
		for i := 0; i < 3; i++ {
			if err := pw.WriteRecord(w.Format, data); err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, conn.Len())
		}
		frame := sizes[1] - sizes[0]
		meta := sizes[0] - frame
		tax := fmt.Sprintf("+%.1f%%", 100*float64(meta)/float64(frame))
		t.Logf("%s: record frame %d B, metadata frame %d B, tax %s", w.Name, frame, meta, tax)
		if sizes[2]-sizes[1] != frame {
			t.Errorf("%s: third record took %d B, second %d B", w.Name, sizes[2]-sizes[1], frame)
		}
		if got := want[w.Name]; frame != got.frame || meta != got.meta || tax != got.tax {
			t.Errorf("%s: frame %d B, metadata %d B, tax %s; want %d, %d, %s",
				w.Name, frame, meta, tax, got.frame, got.meta, got.tax)
		}
	}
}

// TestClaimXMLMetadataCostsNothingPerMessage is the per-message half of §5's
// claim that XML metadata costs nothing once registered (Tables 4 and 5 of
// earlier versions timed it end to end): for each Appendix A structure, the
// format xml2wire registers is the native one, by ID and by the bytes it
// encodes, and encoding and decoding through it allocate the same. The
// one-time registration cost is TestTable1RegistrationRatio's.
func TestClaimXMLMetadataCostsNothingPerMessage(t *testing.T) {
	for _, c := range bench.RegistrationCases() {
		native, err := c.Native()
		if err != nil {
			t.Fatal(err)
		}
		viaXML, err := bench.RegisterXML([]byte(c.Schema))
		if err != nil {
			t.Fatal(err)
		}
		if native.ID != viaXML.ID {
			t.Errorf("%s: xml2wire format ID %x, native %x", c.Name, viaXML.ID, native.ID)
		}
		data, err := native.Encode(c.Record)
		if err != nil {
			t.Fatal(err)
		}
		if x, err := viaXML.Encode(c.Record); err != nil || !bytes.Equal(x, data) {
			t.Errorf("%s: xml2wire encodes %x (err %v), native %x", c.Name, x, err, data)
		}
		measure := func(f *pbio.Format) (enc, dec float64, decT time.Duration) {
			decode := func() error { _, err := f.Decode(data); return err }
			enc = testing.AllocsPerRun(20, func() { _, _ = f.Encode(c.Record) })
			dec = testing.AllocsPerRun(20, func() { _ = decode() })
			return enc, dec, decodeTime(t, decode)
		}
		ne, nd, nt := measure(native)
		xe, xd, xt := measure(viaXML)
		t.Logf("%s: native encode %v and decode %v allocations, %v; xml2wire %v and %v, %v",
			c.Name, ne, nd, nt, xe, xd, xt)
		if ne != xe || nd != xd {
			t.Errorf("%s: xml2wire allocates %v to encode and %v to decode, native %v and %v",
				c.Name, xe, xd, ne, nd)
		}
	}
}
