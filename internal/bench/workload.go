// Package bench is the harness that regenerates the paper's evaluation:
// workload generators, parameter sweeps, timing helpers and table
// formatting. Each timed table builds its measured operations once, as a
// list of Ops; cmd/benchtab times that list and prints the table, and the
// package's BenchmarkTable* functions run the same list under testing.B.
package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// Workload is a format plus a generator of records matching it, the unit
// every experiment sweeps over.
type Workload struct {
	// Name identifies the workload in tables ("mixed-1KB").
	Name string
	// Format is the registered message format.
	Format *pbio.Format
	// Record is a representative record for the format.
	Record pbio.Record
}

// MixedSpec parameterizes a synthetic record format with the field mix the
// paper's application domain uses: identifiers (strings), counters
// (integers) and measurements (doubles), plus one dynamic array.
type MixedSpec struct {
	Name    string
	Ints    int // 4-byte integers
	Doubles int
	Strings int
	StrLen  int
	// ArrayLen is the length of the dynamic double array (0 omits it).
	ArrayLen int
}

// Build registers the format described by the spec and produces a matching
// record with deterministic contents.
func (s MixedSpec) Build(ctx *pbio.Context, seed int64) (Workload, error) {
	specs := make([]pbio.FieldSpec, 0, s.Ints+s.Doubles+s.Strings+2)
	for i := 0; i < s.Ints; i++ {
		specs = append(specs, pbio.FieldSpec{
			Name: fmt.Sprintf("i%d", i), Kind: pbio.Int, CType: machine.CInt,
		})
	}
	for i := 0; i < s.Doubles; i++ {
		specs = append(specs, pbio.FieldSpec{
			Name: fmt.Sprintf("d%d", i), Kind: pbio.Float, CType: machine.CDouble,
		})
	}
	for i := 0; i < s.Strings; i++ {
		specs = append(specs, pbio.FieldSpec{
			Name: fmt.Sprintf("s%d", i), Kind: pbio.String,
		})
	}
	if s.ArrayLen > 0 {
		specs = append(specs,
			pbio.FieldSpec{Name: "samples", Kind: pbio.Float, CType: machine.CDouble,
				Dynamic: true, CountField: "n"},
			pbio.FieldSpec{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		)
	}
	f, err := ctx.RegisterSpec(s.Name, specs)
	if err != nil {
		return Workload{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	rec := make(pbio.Record, len(specs))
	for i := 0; i < s.Ints; i++ {
		rec[fmt.Sprintf("i%d", i)] = int64(rng.Int31())
	}
	for i := 0; i < s.Doubles; i++ {
		rec[fmt.Sprintf("d%d", i)] = rng.NormFloat64() * 1e3
	}
	for i := 0; i < s.Strings; i++ {
		rec[fmt.Sprintf("s%d", i)] = randomString(rng, s.StrLen)
	}
	if s.ArrayLen > 0 {
		arr := make([]float64, s.ArrayLen)
		for i := range arr {
			arr[i] = rng.Float64() * 100
		}
		rec["samples"] = arr
	}
	return Workload{Name: s.Name, Format: f, Record: rec}, nil
}

func randomString(rng *rand.Rand, n int) string {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(letters[rng.Intn(len(letters))])
	}
	return sb.String()
}

// SizeSweep returns the standard workload sweep used by the wire-format
// experiments: payloads from ~100 bytes to ~100 KB of mixed field content,
// the span the paper's application scenario covers (small control events to
// bulk scientific data).
func SizeSweep(ctx *pbio.Context, seed int64) ([]Workload, error) {
	specs := []MixedSpec{
		{Name: "mixed100B", Ints: 4, Doubles: 4, Strings: 2, StrLen: 8},
		{Name: "mixed1KB", Ints: 10, Doubles: 10, Strings: 4, StrLen: 16, ArrayLen: 100},
		{Name: "mixed10KB", Ints: 20, Doubles: 20, Strings: 8, StrLen: 32, ArrayLen: 1200},
		{Name: "mixed100KB", Ints: 20, Doubles: 20, Strings: 8, StrLen: 32, ArrayLen: 12500},
	}
	out := make([]Workload, 0, len(specs))
	for i, s := range specs {
		w, err := s.Build(ctx, seed+int64(i))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
