package dcg_test

import (
	"bytes"
	"reflect"
	"testing"

	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
	"openmeta/internal/xdr"
	"openmeta/internal/xmlwire"
)

// TestCodecOracle is the differential oracle over the three independent
// codecs. For generated schemas and values, on every pair of architectures:
// NDR encode on the source → dcg.Convert → decode on the destination must
// give back the value, byte-identical to the destination's own encoding and
// allocated at exactly its size; and the XDR and XML-text round trips of the
// same value, which share no code with NDR or dcg, must give back the same.
func TestCodecOracle(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 12
	}
	arches := machine.ArchNames()
	for seed := int64(1); seed <= seeds; seed++ {
		schema := testutil.NewGenSchema(seed)
		formats := make([]*pbio.Format, len(arches))
		for i, name := range arches {
			arch, err := machine.ArchByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := pbio.NewContext(arch)
			if err != nil {
				t.Fatal(err)
			}
			if formats[i], err = schema.Register(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for vs := int64(0); vs < 3; vs++ {
			want := schema.Value(vs)
			for i, src := range formats {
				ndr, err := src.Encode(want)
				if err != nil {
					t.Fatalf("seed %d/%d %s: Encode: %v", seed, vs, arches[i], err)
				}
				xdrBytes, err := xdr.EncodeRecord(src, want)
				if err != nil {
					t.Fatalf("seed %d/%d %s: xdr encode: %v", seed, vs, arches[i], err)
				}
				if got, err := xdr.DecodeRecord(src, xdrBytes); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d/%d %s: XDR round trip (err %v)\n got %v\nwant %v", seed, vs, arches[i], err, got, want)
				}
				xml, err := xmlwire.EncodeRecord(src, want)
				if err != nil {
					t.Fatalf("seed %d/%d %s: xml encode: %v", seed, vs, arches[i], err)
				}
				if got, err := xmlwire.DecodeRecord(src, xml); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d/%d %s: XML round trip (err %v)\n got %v\nwant %v", seed, vs, arches[i], err, got, want)
				}
				for j, dst := range formats {
					pair := arches[i] + "->" + arches[j]
					plan, err := dcg.Compile(src, dst)
					if err != nil {
						t.Fatalf("seed %d %s: Compile: %v", seed, pair, err)
					}
					out, err := plan.Convert(ndr)
					if err != nil {
						t.Fatalf("seed %d/%d %s: Convert: %v", seed, vs, pair, err)
					}
					if cap(out) != len(out) {
						t.Errorf("seed %d/%d %s: Convert allocated %d bytes for a %d-byte record", seed, vs, pair, cap(out), len(out))
					}
					if native, err := dst.Encode(want); err != nil || !bytes.Equal(out, native) {
						t.Fatalf("seed %d/%d %s: converted record differs from the destination's own encoding (err %v)\n got %x\nwant %x",
							seed, vs, pair, err, out, native)
					}
					if got, err := dst.Decode(out); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d/%d %s: NDR→convert→decode (err %v)\n got %v\nwant %v", seed, vs, pair, err, got, want)
					}
				}
			}
		}
	}
}
