package bench

import (
	"fmt"

	"openmeta/internal/core"
	"openmeta/internal/dcg"
	"openmeta/internal/machine"
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
	// Seed drives all workload generation.
	Seed int64
}

// Quick returns a configuration sized for interactive runs.
func Quick() Config { return Config{Trials: 5, Inner: 50, Seed: 1} }

// Full returns a configuration sized for stable numbers.
func Full() Config { return Config{Trials: 15, Inner: 200, Seed: 1} }

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

// Native registers the case's native PBIO metadata on a fresh context for
// the paper's SPARC and returns the structure's format. A fresh context per
// call keeps the catalog's fast path out of a timed registration.
func (c RegistrationCase) Native() (*pbio.Format, error) {
	ctx, err := pbio.NewContext(machine.Sparc)
	if err != nil {
		return nil, err
	}
	var f *pbio.Format
	for _, nf := range c.Formats {
		if f, err = ctx.Register(nf.Name, nf.Fields); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// RegisterXML is xml2wire on a fresh SPARC context: it parses the schema
// document, registers its types and returns the last one's format. As the
// paper measures it, this "includes the time necessary to parse the XML
// description of the format and register the format with PBIO".
func RegisterXML(doc []byte) (*pbio.Format, error) {
	ctx, err := pbio.NewContext(machine.Sparc)
	if err != nil {
		return nil, err
	}
	set, err := core.RegisterDocument(ctx, doc)
	if err != nil {
		return nil, err
	}
	return set.Root(), nil
}

// table1Ops builds Table 1's operations: per structure, registration from
// native metadata, then through xml2wire.
func table1Ops() []Op {
	var ops []Op
	for _, c := range RegistrationCases() {
		doc := []byte(c.Schema)
		ops = append(ops,
			Op{Name: "PBIO/" + c.Name, Run: func() error { _, err := c.Native(); return err }},
			Op{Name: "xml2wire/" + c.Name, Run: func() error { _, err := RegisterXML(doc); return err }},
		)
	}
	return ops
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
			"Reg Time PBIO", "Reg Time xml2wire", "xml2wire/PBIO", "Allocs PBIO / xml2wire"},
		Notes: []string{
			"paper reports 32/52/180 struct bytes and identical encoded sizes for both paths",
			"paper's C+D row reports the unpadded extent (180); conforming sizeof is 184",
			"expected shape: xml2wire ~2-3x PBIO registration, both growing with field count",
			"allocations repeat exactly where times do not; TestTable1RegistrationRatio asserts their ratio",
		},
	}
	res, err := measure(cfg, table1Ops())
	if err != nil {
		return nil, err
	}
	for i, c := range RegistrationCases() {
		native, err := c.Native()
		if err != nil {
			return nil, err
		}
		viaXML, err := RegisterXML([]byte(c.Schema))
		if err != nil {
			return nil, err
		}
		encNative, err := native.Encode(c.Record)
		if err != nil {
			return nil, err
		}
		encXML, err := viaXML.Encode(c.Record)
		if err != nil {
			return nil, err
		}
		p, x := res[2*i], res[2*i+1]
		t.AddRow(c.Name, native.Size, len(encNative), len(encXML), p.T, x.T, Ratio(x.T, p.T),
			fmt.Sprintf("%d / %d (%.1fx)", p.Allocs, x.Allocs, float64(x.Allocs)/float64(p.Allocs)))
	}
	return t, nil
}

// --- Table 2: wire format comparison (NDR vs XDR vs XML text) --------------

// table2Ops builds Table 2's operations: per workload of the size sweep,
// encode then decode in NDR, XDR and XML text, each op's Bytes the size of
// its encoding.
func table2Ops(seed int64) ([]Op, error) {
	works, err := sweep(machine.Native, seed)
	if err != nil {
		return nil, err
	}
	var ops []Op
	for _, w := range works {
		f, rec := w.Format, w.Record
		ndr, err := f.Encode(rec)
		if err != nil {
			return nil, err
		}
		x, err := xdr.EncodeRecord(f, rec)
		if err != nil {
			return nil, err
		}
		xml, err := xmlwire.EncodeRecord(f, rec)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, 0, len(ndr))
		ops = append(ops,
			Op{"NDR/encode/" + w.Name, len(ndr), func() (err error) { buf, err = f.AppendEncode(buf[:0], rec); return err }},
			Op{"NDR/decode/" + w.Name, len(ndr), func() error { _, err := f.Decode(ndr); return err }},
			Op{"XDR/encode/" + w.Name, len(x), func() error { _, err := xdr.EncodeRecord(f, rec); return err }},
			Op{"XDR/decode/" + w.Name, len(x), func() error { _, err := xdr.DecodeRecord(f, x); return err }},
			Op{"XMLtext/encode/" + w.Name, len(xml), func() error { _, err := xmlwire.EncodeRecord(f, rec); return err }},
			Op{"XMLtext/decode/" + w.Name, len(xml), func() error { _, err := xmlwire.DecodeRecord(f, xml); return err }},
		)
	}
	return ops, nil
}

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
	ops, err := table2Ops(cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := measure(cfg, ops)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(res); i += 6 {
		ndr := res[i]
		ndrTotal := ndr.T + res[i+1].T
		for j := i; j < i+6; j += 2 {
			enc, dec := res[j], res[j+1]
			codec, work := nameParts(enc.Name)
			total := enc.T + dec.T
			t.AddRow(work, codec, enc.T, dec.T, total, enc.Bytes, Ratio(total, ndrTotal),
				fmt.Sprintf("%.1fx", float64(enc.Bytes)/float64(ndr.Bytes)), dec.Allocs)
		}
	}
	return t, nil
}

// --- Table 3: NDR vs XDR with hetero/homogeneous receivers ------------------

// table3Ops builds Table 3's operations: per workload, an NDR encode and
// its receiver's make-right on the same machine (NDRhomo) and on a
// big-endian one (NDRhetero), and an XDR encode and decode.
func table3Ops(seed int64) ([]Op, error) {
	works, err := sweep(machine.Native, seed)
	if err != nil {
		return nil, err
	}
	recvWorks, err := sweep(machine.Sparc64, seed)
	if err != nil {
		return nil, err
	}
	cache := dcg.NewCache()
	var ops []Op
	for i, w := range works {
		f, rec := w.Format, w.Record
		homo, err := cache.Plan(f, f)
		if err != nil {
			return nil, err
		}
		hetero, err := cache.Plan(f, recvWorks[i].Format)
		if err != nil {
			return nil, err
		}
		var buf, out []byte
		sendAndReceive := func(plan *dcg.Plan) func() error {
			return func() (err error) {
				if buf, err = f.AppendEncode(buf[:0], rec); err != nil {
					return err
				}
				out, err = plan.AppendConvert(out[:0], buf)
				return err
			}
		}
		ops = append(ops,
			Op{Name: "NDRhomo/" + w.Name, Run: sendAndReceive(homo)},
			Op{Name: "NDRhetero/" + w.Name, Run: sendAndReceive(hetero)},
			Op{Name: "XDR/" + w.Name, Run: func() error {
				enc, err := xdr.EncodeRecord(f, rec)
				if err != nil {
					return err
				}
				_, err = xdr.DecodeRecord(f, enc)
				return err
			}},
		)
	}
	return ops, nil
}

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
	ops, err := table3Ops(cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := measure(cfg, ops)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(res); i += 3 {
		xdrBoth := res[i+2].T
		for _, r := range res[i : i+3] {
			pipeline, work := nameParts(r.Name)
			t.AddRow(work, pipeline, r.T, Ratio(xdrBoth, r.T))
		}
	}
	return t, nil
}

// sweep builds the size sweep on a fresh context for arch.
func sweep(arch *machine.Arch, seed int64) ([]Workload, error) {
	ctx, err := pbio.NewContext(arch)
	if err != nil {
		return nil, err
	}
	return SizeSweep(ctx, seed)
}
