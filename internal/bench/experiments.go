package bench

import (
	"fmt"
	"time"

	"openmeta/internal/core"
	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/xdr"
	"openmeta/internal/xmlwire"
)

// Config scales the experiments. Quick settings keep cmd/benchtab under a
// few seconds; Full settings tighten the medians.
type Config struct {
	// Trials is the number of repetitions whose median is reported.
	Trials int
	// Inner is the number of operations per repetition.
	Inner int
	// Messages is the message count for end-to-end experiments.
	Messages int
	// Seed drives all workload generation.
	Seed int64
}

// Quick returns a configuration sized for interactive runs.
func Quick() Config { return Config{Trials: 5, Inner: 50, Messages: 200, Seed: 1} }

// Full returns a configuration sized for stable numbers.
func Full() Config { return Config{Trials: 15, Inner: 200, Messages: 2000, Seed: 1} }

// --- Table 1: format registration costs ------------------------------------

// Appendix A structures as both native PBIO metadata (Figures 5, 8, 11 with
// the 32-bit big-endian layout of the paper's SPARC evaluation machine) and
// XML Schema documents (Figures 6, 9, 12).
// RegistrationCase is one Table 1 row: a structure expressed as native
// PBIO metadata, as an XML Schema document, and a sample record.
type RegistrationCase struct {
	Name    string
	Formats []NamedIOFields // registered in order; last is the structure
	Schema  string
	Record  pbio.Record
}

// NamedIOFields is a named, paper-style IOField list.
type NamedIOFields struct {
	Name   string
	Fields []pbio.IOField
}

// StructureACase is Appendix A Structure A (Figures 4-6).
func StructureACase() RegistrationCase {
	return RegistrationCase{
		Name: "A (no arrays, no nesting)",
		Formats: []NamedIOFields{{"ASDOffEvent", []pbio.IOField{
			{Name: "cntrID", Type: "string", Size: 4, Offset: 0},
			{Name: "arln", Type: "string", Size: 4, Offset: 4},
			{Name: "fltNum", Type: "integer", Size: 4, Offset: 8},
			{Name: "equip", Type: "string", Size: 4, Offset: 12},
			{Name: "org", Type: "string", Size: 4, Offset: 16},
			{Name: "dest", Type: "string", Size: 4, Offset: 20},
			{Name: "off", Type: "unsigned integer", Size: 4, Offset: 24},
			{Name: "eta", Type: "unsigned integer", Size: 4, Offset: 28},
		}}},
		Schema: `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" />
    <xsd:element name="eta" type="xsd:unsigned-long" />
  </xsd:complexType>
</xsd:schema>`,
		// The string contents total 40 bytes with NUL terminators, which
		// reproduces the paper's encoded size of 72 bytes exactly
		// (32-byte fixed region + 40 bytes of string data).
		Record: pbio.Record{
			"cntrID": "ZTL-SECTOR-038", "arln": "DAL", "fltNum": 1842,
			"equip": "B757-232ER", "org": "KATL", "dest": "KMCO",
			"off": uint64(35000), "eta": uint64(39000),
		},
	}
}

// StructureBCase is Appendix A Structure B (Figures 7-9).
func StructureBCase() RegistrationCase {
	return RegistrationCase{
		Name: "B (static + dynamic arrays)",
		Formats: []NamedIOFields{{"ASDOffEvent", []pbio.IOField{
			{Name: "cntrID", Type: "string", Size: 4, Offset: 0},
			{Name: "arln", Type: "string", Size: 4, Offset: 4},
			{Name: "fltNum", Type: "integer", Size: 4, Offset: 8},
			{Name: "equip", Type: "string", Size: 4, Offset: 12},
			{Name: "org", Type: "string", Size: 4, Offset: 16},
			{Name: "dest", Type: "string", Size: 4, Offset: 20},
			{Name: "off", Type: "unsigned integer[5]", Size: 4, Offset: 24},
			{Name: "eta", Type: "unsigned integer[eta_count]", Size: 4, Offset: 44},
			{Name: "eta_count", Type: "integer", Size: 4, Offset: 48},
		}}},
		Schema: `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="arln" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="equip" type="xsd:string" />
    <xsd:element name="org" type="xsd:string" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="off" type="xsd:unsigned-long" minOccurs="5" maxOccurs="5" />
    <xsd:element name="eta" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>`,
		// Same 40 bytes of strings plus a 3-element dynamic array of 4-byte
		// unsigned longs: 52 + 40 + 12 = 104 encoded bytes, the paper's
		// Table 1 value for this row.
		Record: pbio.Record{
			"cntrID": "ZTL-SECTOR-038", "arln": "DAL", "fltNum": 1842,
			"equip": "B757-232ER", "org": "KATL", "dest": "KMCO",
			"off": []uint64{1, 2, 3, 4, 5}, "eta": []uint64{10, 20, 30},
		},
	}
}

// StructureCDCase is Appendix A Structures C and D (Figures 10-12).
func StructureCDCase() RegistrationCase {
	b := StructureBCase()
	three := NamedIOFields{Name: "threeASDOffs", Fields: []pbio.IOField{
		{Name: "one", Type: "ASDOffEvent", Size: 52, Offset: 0},
		{Name: "bart", Type: "double", Size: 8, Offset: 56},
		{Name: "two", Type: "ASDOffEvent", Size: 52, Offset: 64},
		{Name: "lisa", Type: "double", Size: 8, Offset: 120},
		{Name: "three", Type: "ASDOffEvent", Size: 52, Offset: 128},
	}}
	inner := b.Record
	return RegistrationCase{
		Name:    "C+D (arrays + nesting)",
		Formats: []NamedIOFields{b.Formats[0], three},
		Schema: b.Schema[:len(b.Schema)-len("</xsd:schema>")] + `
  <xsd:complexType name="threeASDOffs">
    <xsd:element name="one" type="ASDOffEvent" />
    <xsd:element name="bart" type="xsd:double" />
    <xsd:element name="two" type="ASDOffEvent" />
    <xsd:element name="lisa" type="xsd:double" />
    <xsd:element name="three" type="ASDOffEvent" />
  </xsd:complexType>
</xsd:schema>`,
		Record: pbio.Record{
			"one": inner, "bart": 1.5, "two": inner, "lisa": 2.5, "three": inner,
		},
	}
}

// RegistrationCases returns the three Table 1 structures in paper order.
func RegistrationCases() []RegistrationCase {
	return []RegistrationCase{StructureACase(), StructureBCase(), StructureCDCase()}
}

// Table1 reproduces the paper's Table 1: structure size, encoded size under
// both registration paths, and format registration time for native PBIO
// metadata versus xml2wire.
func Table1(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Table 1",
		Caption: "Format registration costs using xml2wire and PBIO (arch: sparc, as in the paper)",
		Headers: []string{"Structure", "Struct Size (B)",
			"Encoded PBIO (B)", "Encoded xml2wire (B)",
			"Reg Time PBIO", "Reg Time xml2wire", "xml2wire/PBIO", "Allocs PBIO / xml2wire", "Live Counters Δ"},
		Notes: []string{
			"paper reports 32/52/180 struct bytes and identical encoded sizes for both paths",
			"paper's C+D row reports the unpadded extent (180); conforming sizeof is 184",
			"expected shape: xml2wire ~2-3x PBIO registration, both growing with field count",
			"allocations repeat exactly where times do not; TestTable1RegistrationRatio asserts their ratio",
			"Live Counters Δ cross-checks each row against the obsv registry: pbio.formats.registered and pbio.encode.calls deltas over the row's work (timing loops included)",
		},
	}
	for _, c := range RegistrationCases() {
		statsBefore := obsv.Default().Snapshot()
		// Resolve once for sizes and encoded sizes.
		ctx, err := pbio.NewContext(machine.Sparc)
		if err != nil {
			return nil, err
		}
		var last *pbio.Format
		for _, nf := range c.Formats {
			if last, err = ctx.Register(nf.Name, nf.Fields); err != nil {
				return nil, fmt.Errorf("table1 %s: %w", c.Name, err)
			}
		}
		encNative, err := last.Encode(c.Record)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", c.Name, err)
		}
		xctx, err := pbio.NewContext(machine.Sparc)
		if err != nil {
			return nil, err
		}
		set, err := core.RegisterDocument(xctx, []byte(c.Schema))
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", c.Name, err)
		}
		encXML, err := set.Root().Encode(c.Record)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", c.Name, err)
		}

		// Native registration timing: fresh context per inner op so the
		// catalog fast path cannot short-circuit.
		caseCopy := c
		native := func() error {
			ctx, err := pbio.NewContext(machine.Sparc)
			if err != nil {
				return err
			}
			for _, nf := range caseCopy.Formats {
				if _, err := ctx.Register(nf.Name, nf.Fields); err != nil {
					return err
				}
			}
			return nil
		}
		tPBIO, err := TimeOp(cfg.Trials, cfg.Inner, native)
		if err != nil {
			return nil, err
		}
		// xml2wire: parse the XML description and register, as the paper
		// measures ("includes the time necessary to parse the XML
		// description of the format and register the format with PBIO").
		doc := []byte(c.Schema)
		viaXML := func() error {
			ctx, err := pbio.NewContext(machine.Sparc)
			if err != nil {
				return err
			}
			_, err = core.RegisterDocument(ctx, doc)
			return err
		}
		tXML, err := TimeOp(cfg.Trials, cfg.Inner, viaXML)
		if err != nil {
			return nil, err
		}
		aPBIO, err := AllocsOp(native)
		if err != nil {
			return nil, err
		}
		aXML, err := AllocsOp(viaXML)
		if err != nil {
			return nil, err
		}
		sd := obsv.Delta(statsBefore, obsv.Default().Snapshot())
		statsCol := fmt.Sprintf("regs +%d, encodes +%d",
			sd["pbio.formats.registered"], sd["pbio.encode.calls"])
		t.AddRow(c.Name, last.Size, len(encNative), len(encXML), tPBIO, tXML,
			Ratio(tXML, tPBIO), fmt.Sprintf("%d / %d (%.1fx)", aPBIO, aXML, float64(aXML)/float64(aPBIO)), statsCol)
	}
	return t, nil
}

// --- Table 2: wire format comparison (NDR vs XDR vs XML text) --------------

// Table2 quantifies the paper's headline comparison: per-message marshal +
// unmarshal cost and encoded size for NDR, XDR and XML-text wire formats
// over the standard size sweep.
func Table2(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Table 2",
		Caption: "Wire format cost per message (encode + decode) and encoded sizes",
		Headers: []string{"Workload", "Format", "Encode", "Decode", "Total",
			"Size (B)", "vs NDR time", "vs NDR size", "Decode allocs"},
		Notes: []string{
			"paper claims ~an order of magnitude over text-based XML and >50% over XDR",
			"paper cites 6-8x ASCII expansion for numeric data (mixed workloads include strings)",
		},
	}
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		return nil, err
	}
	works, err := SizeSweep(ctx, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, w := range works {
		ndrData, err := w.Format.Encode(w.Record)
		if err != nil {
			return nil, err
		}
		xdrData, err := xdr.EncodeRecord(w.Format, w.Record)
		if err != nil {
			return nil, err
		}
		xmlData, err := xmlwire.EncodeRecord(w.Format, w.Record)
		if err != nil {
			return nil, err
		}

		type fmtCase struct {
			name string
			enc  func() error
			dec  func() error
			size int
		}
		buf := make([]byte, 0, len(ndrData)*2)
		cases := []fmtCase{
			{"NDR", func() error {
				var err error
				buf, err = w.Format.AppendEncode(buf[:0], w.Record)
				return err
			}, func() error {
				_, err := w.Format.Decode(ndrData)
				return err
			}, len(ndrData)},
			{"XDR", func() error {
				_, err := xdr.EncodeRecord(w.Format, w.Record)
				return err
			}, func() error {
				_, err := xdr.DecodeRecord(w.Format, xdrData)
				return err
			}, len(xdrData)},
			{"XML", func() error {
				_, err := xmlwire.EncodeRecord(w.Format, w.Record)
				return err
			}, func() error {
				_, err := xmlwire.DecodeRecord(w.Format, xmlData)
				return err
			}, len(xmlData)},
		}
		var ndrTotal time.Duration
		for _, fc := range cases {
			encT, err := TimeOp(cfg.Trials, cfg.Inner, fc.enc)
			if err != nil {
				return nil, err
			}
			decT, err := TimeOp(cfg.Trials, cfg.Inner, fc.dec)
			if err != nil {
				return nil, err
			}
			decA, err := AllocsOp(fc.dec)
			if err != nil {
				return nil, err
			}
			total := encT + decT
			if fc.name == "NDR" {
				ndrTotal = total
			}
			t.AddRow(w.Name, fc.name, encT, decT, total, fc.size,
				Ratio(total, ndrTotal),
				fmt.Sprintf("%.1fx", float64(fc.size)/float64(len(ndrData))), decA)
		}
	}
	return t, nil
}

// --- Table 3: NDR vs XDR with hetero/homogeneous receivers ------------------

// Table3 isolates the transmission-pipeline comparison: sender marshal plus
// receiver make-right cost, for NDR between identical machines (no
// conversion: the case XDR cannot exploit), NDR between different machines
// (compiled conversion plan) and XDR (canonical form both ways).
func Table3(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Table 3",
		Caption: "Sender + receiver CPU cost per message: NDR vs XDR, homo- and heterogeneous",
		Headers: []string{"Workload", "Pipeline", "Cost/msg", "Gain vs XDR"},
		Notes: []string{
			"NDR homogeneous receive is a bounds-checked copy; XDR converts on both sides regardless",
			"expected shape: NDR-homo >> XDR; NDR-hetero still ahead (single conversion, no wire canonicalization)",
		},
	}
	sender, err := pbio.NewContext(machine.Native)
	if err != nil {
		return nil, err
	}
	works, err := SizeSweep(ctx64(sender), cfg.Seed)
	if err != nil {
		return nil, err
	}
	// A big-endian receiver context with the same formats.
	recvCtx, err := pbio.NewContext(machine.Sparc64)
	if err != nil {
		return nil, err
	}
	recvWorks, err := SizeSweep(recvCtx, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cache := dcg.NewCache()
	for i, w := range works {
		data, err := w.Format.Encode(w.Record)
		if err != nil {
			return nil, err
		}
		homoPlan, err := cache.Plan(w.Format, w.Format)
		if err != nil {
			return nil, err
		}
		heteroPlan, err := cache.Plan(w.Format, recvWorks[i].Format)
		if err != nil {
			return nil, err
		}
		out := make([]byte, 0, len(data)+64)
		buf := make([]byte, 0, len(data))

		ndrHomo, err := TimeOp(cfg.Trials, cfg.Inner, func() error {
			var err error
			buf, err = w.Format.AppendEncode(buf[:0], w.Record)
			if err != nil {
				return err
			}
			out, err = homoPlan.AppendConvert(out[:0], buf)
			return err
		})
		if err != nil {
			return nil, err
		}
		ndrHetero, err := TimeOp(cfg.Trials, cfg.Inner, func() error {
			var err error
			buf, err = w.Format.AppendEncode(buf[:0], w.Record)
			if err != nil {
				return err
			}
			out, err = heteroPlan.AppendConvert(out[:0], buf)
			return err
		})
		if err != nil {
			return nil, err
		}
		xdrBoth, err := TimeOp(cfg.Trials, cfg.Inner, func() error {
			enc, err := xdr.EncodeRecord(w.Format, w.Record)
			if err != nil {
				return err
			}
			_, err = xdr.DecodeRecord(w.Format, enc)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name, "NDR homogeneous", ndrHomo, Ratio(xdrBoth, ndrHomo))
		t.AddRow(w.Name, "NDR heterogeneous", ndrHetero, Ratio(xdrBoth, ndrHetero))
		t.AddRow(w.Name, "XDR (both sides)", xdrBoth, "1.0x")
	}
	return t, nil
}

// ctx64 returns its argument; it exists to keep call sites explicit about
// which context a sweep was built in.
func ctx64(c *pbio.Context) *pbio.Context { return c }
