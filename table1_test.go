package openmeta

import (
	"testing"

	"openmeta/internal/bench"
)

// registerAllocs counts the allocations of registering doc through xml2wire
// on a fresh context.
func registerAllocs(t *testing.T, doc []byte) float64 {
	return testing.AllocsPerRun(20, func() {
		if _, err := bench.RegisterXML(doc); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTable1RegistrationRatio holds the paper's Table 1 claim as an assertion
// in allocations, which repeat exactly where times do not: discovering a
// format as XML costs a constant factor over compiled-in PBIO metadata (the
// paper measures 1.8-2.0x in time), and the cost grows linearly with the
// number of fields.
func TestTable1RegistrationRatio(t *testing.T) {
	for _, c := range bench.RegistrationCases() {
		native := testing.AllocsPerRun(20, func() {
			if _, err := c.Native(); err != nil {
				t.Fatal(err)
			}
		})
		xml := registerAllocs(t, []byte(c.Schema))
		t.Logf("%s: native %.0f, xml2wire %.0f allocations (%.2fx)", c.Name, native, xml, xml/native)
		if xml > 3.5*native {
			t.Errorf("%s: xml2wire registration allocates %.0f against %.0f native (%.2fx), want at most 3.5x",
				c.Name, xml, native, xml/native)
		}
	}

	fields := []int{4, 8, 16, 32, 64}
	allocs := make([]float64, len(fields))
	for i, n := range fields {
		allocs[i] = registerAllocs(t, bench.SyntheticSchema(n))
		if i == 0 {
			continue
		}
		perField := (allocs[i] - allocs[i-1]) / float64(n-fields[i-1])
		t.Logf("%d fields: %.0f allocations, %.2f per added field", n, allocs[i], perField)
		if perField > 2 {
			t.Errorf("%d -> %d fields: %.2f allocations per added field, want at most 2",
				fields[i-1], n, perField)
		}
	}
}
