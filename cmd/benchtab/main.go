// Command benchtab regenerates the paper's evaluation artifacts as printed
// tables: Table 1 (format registration costs) plus the quantitative claims
// of §1, §5 and §6 expressed as Tables 2, 3, 6, 7 and 9 (wire-format
// comparison, NDR vs XDR, receiver conversion, the format cache on the wire
// and registration scaling). See EXPERIMENTS.md for the paper-vs-measured
// discussion of every table, and for where Tables 4, 5 and 8 went.
//
// Usage:
//
//	benchtab                # all tables, quick configuration
//	benchtab -table 1       # a single table
//	benchtab -full          # slower, tighter medians
package main

import (
	"flag"
	"fmt"
	"os"

	"openmeta/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	table := fs.Int("table", 0, "table number to run (0 = all)")
	full := fs.Bool("full", false, "use the slower, tighter configuration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := bench.Quick()
	if *full {
		cfg = bench.Full()
	}

	if *table != 0 {
		gen, err := bench.ByID(*table)
		if err != nil {
			return err
		}
		tbl, err := gen(cfg)
		if err != nil {
			return err
		}
		return tbl.Write(os.Stdout)
	}
	tables, err := bench.All(cfg)
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		if err := tbl.Write(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
