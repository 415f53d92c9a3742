package pbio_test

import (
	"fmt"
	"testing"

	"openmeta/internal/bench"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// countByScan is the definition Field.IsCount marks once per format: a field
// is a count field when some dynamic array of its format names it.
func countByScan(f *pbio.Format, fl *pbio.Field) bool {
	for i := range f.Fields {
		if f.Fields[i].Dynamic && f.Fields[i].CountField == fl.Name {
			return true
		}
	}
	return false
}

// checkCountMarks holds IsCount to countByScan on every field of f and of
// the formats nested in it.
func checkCountMarks(t *testing.T, what string, f *pbio.Format) {
	t.Helper()
	for i := range f.Fields {
		fl := &f.Fields[i]
		if got, want := fl.IsCount(), countByScan(f, fl); got != want {
			t.Errorf("%s: format %q field %q: IsCount = %v, want %v", what, f.Name, fl.Name, got, want)
		}
		if fl.Nested != nil {
			checkCountMarks(t, what, fl.Nested)
		}
	}
}

// TestIsCountMatchesScan checks the count-field mark on every format the
// generated-schema tests and fuzzers use and on Appendix A's structures, as
// each of the three ways a format is made leaves it: registration, metadata
// from a peer, and a derived subset, including one that keeps a count field
// without its array.
func TestIsCountMatchesScan(t *testing.T) {
	var formats []*pbio.Format
	for seed := int64(1); seed <= 120; seed++ {
		ctx, err := pbio.NewContext(machine.X86_64)
		if err != nil {
			t.Fatal(err)
		}
		f, err := testutil.NewGenSchema(seed).Register(ctx)
		if err != nil {
			t.Fatal(err)
		}
		formats = append(formats, f)
	}
	for _, c := range bench.RegistrationCases() {
		ctx, err := pbio.NewContext(machine.Sparc)
		if err != nil {
			t.Fatal(err)
		}
		for _, nf := range c.Formats {
			f, err := ctx.Register(nf.Name, nf.Fields)
			if err != nil {
				t.Fatal(err)
			}
			formats = append(formats, f)
		}
	}
	counts := 0
	for _, f := range formats {
		checkCountMarks(t, "registered", f)
		peer, err := pbio.UnmarshalMeta(pbio.MarshalMeta(f))
		if err != nil {
			t.Fatal(err)
		}
		checkCountMarks(t, "from metadata", peer)
		for i := range f.Fields {
			fl := &f.Fields[i]
			if !fl.Dynamic {
				continue
			}
			counts++
			for _, keep := range [][]string{{fl.Name}, {fl.CountField}} {
				sub, err := pbio.DeriveSubset(f, keep)
				if err != nil {
					t.Fatal(err)
				}
				checkCountMarks(t, fmt.Sprintf("subset %v", keep), sub)
			}
		}
	}
	if counts == 0 {
		t.Fatal("no format has a dynamic array")
	}
}
