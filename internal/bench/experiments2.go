package bench

import (
	"fmt"
	"strings"

	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// --- Table 6: receiver-side conversion -------------------------------------

// table6Ops builds Table 6's operations on big-endian records received by
// this machine: the identity plan (as if the sender matched), the compiled
// conversion plan, and naive per-message interpretation.
func table6Ops(seed int64) ([]Op, error) {
	srcWorks, err := sweep(machine.Sparc64, seed)
	if err != nil {
		return nil, err
	}
	dstWorks, err := sweep(machine.Native, seed)
	if err != nil {
		return nil, err
	}
	cache := dcg.NewCache()
	var ops []Op
	for i, w := range srcWorks {
		src, dst := w.Format, dstWorks[i].Format
		data, err := src.Encode(w.Record)
		if err != nil {
			return nil, err
		}
		identity, err := cache.Plan(src, src)
		if err != nil {
			return nil, err
		}
		plan, err := cache.Plan(src, dst)
		if err != nil {
			return nil, err
		}
		out := make([]byte, 0, len(data)+64)
		convert := func(p *dcg.Plan) func() error {
			return func() (err error) { out, err = p.AppendConvert(out[:0], data); return err }
		}
		ops = append(ops,
			Op{"identity/" + w.Name, len(data), convert(identity)},
			Op{"plan/" + w.Name, len(data), convert(plan)},
			Op{"naive/" + w.Name, len(data), func() error { _, err := dcg.Naive(src, dst, data); return err }},
		)
	}
	return ops, nil
}

// Table6 reproduces the reader-makes-right discussion (§6): receive cost
// when representations match (NDR's no-op), when they differ (compiled
// plan), and what naive per-message metadata interpretation would cost —
// the ablation justifying conversion-plan compilation (the paper's dynamic
// code generation).
func Table6(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Table 6",
		Caption: "Receiver-side cost per message: identity vs compiled plan vs interpretation",
		Headers: []string{"Workload", "Receive path", "Cost/msg", "vs identity"},
		Notes: []string{
			"identity: source and destination representations match (the common homogeneous case)",
			"plan: big-endian source converted by the compiled conversion program",
			"naive: full generic decode + re-encode per message (no plan compilation)",
		},
	}
	ops, err := table6Ops(cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := measure(cfg, ops)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(res); i += 3 {
		identity := res[i].T
		for _, r := range res[i : i+3] {
			path, work := nameParts(r.Name)
			t.AddRow(work, path, r.T, Ratio(r.T, identity))
		}
	}
	return t, nil
}

// --- Table 7: the format cache on the wire ---------------------------------

// Table7 counts what the once-per-connection format cache saves on the
// wire: each record travels as its own frame, and the metadata frame goes
// before the first record of its format on a connection only. Without the
// cache every record would carry both. The counts are exact.
func Table7(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Table 7",
		Caption: "Wire bytes per record, and the format metadata sent once per connection",
		Headers: []string{"Workload", "Record frame (B)", "Metadata frame (B)", "Metadata tax"},
		Notes: []string{
			"metadata tax: what sending the metadata with every record would add to each record's frame",
			"TestClaimMetadataOncePerConnection pins these counts",
		},
	}
	works, err := sweep(machine.Native, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, w := range works {
		data, err := w.Format.Encode(w.Record)
		if err != nil {
			return nil, err
		}
		// A fresh writer is a fresh connection: its first record brings the
		// metadata, its second does not.
		var sink countWriter
		pw := pbio.NewWriter(&sink)
		if err := pw.WriteRecord(w.Format, data); err != nil {
			return nil, err
		}
		first := sink.n
		if err := pw.WriteRecord(w.Format, data); err != nil {
			return nil, err
		}
		frame := sink.n - first
		meta := first - frame
		t.AddRow(w.Name, frame, meta, fmt.Sprintf("+%.1f%%", 100*float64(meta)/float64(frame)))
	}
	return t, nil
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// tables are the generators benchtab prints, by table number, in paper
// order.
var tables = []struct {
	n   int
	gen func(Config) (*Table, error)
}{
	{1, Table1}, {2, Table2}, {3, Table3}, {6, Table6}, {7, Table7}, {9, Table9},
}

// All runs every experiment in paper order.
func All(cfg Config) ([]*Table, error) {
	out := make([]*Table, 0, len(tables))
	for _, g := range tables {
		tbl, err := g.gen(cfg)
		if err != nil {
			return nil, fmt.Errorf("table %d: %w", g.n, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// ByID returns the experiment generator for a table number, or an error
// that names the tables there are.
func ByID(n int) (func(Config) (*Table, error), error) {
	ids := make([]string, len(tables))
	for i, g := range tables {
		if g.n == n {
			return g.gen, nil
		}
		ids[i] = fmt.Sprint(g.n)
	}
	return nil, fmt.Errorf("no such table %d (tables: %s)", n, strings.Join(ids, ", "))
}
