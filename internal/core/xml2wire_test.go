package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlschema"
)

// schemaB is the paper's Figure 9 document (Structure B).
const schemaB = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"
    targetNamespace="http://www.cc.gatech.edu/~pmw/schemas">
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
</xsd:schema>`

// schemaCD is the paper's Figure 12 document (Structures C and D).
var schemaCD = schemaB[:len(schemaB)-len("</xsd:schema>")] + `
  <xsd:complexType name="threeASDOffs">
    <xsd:element name="one" type="ASDOffEvent" />
    <xsd:element name="bart" type="xsd:double" />
    <xsd:element name="two" type="ASDOffEvent" />
    <xsd:element name="lisa" type="xsd:double" />
    <xsd:element name="three" type="ASDOffEvent" />
  </xsd:complexType>
</xsd:schema>`

func TestRegisterSchemaBMatchesCompiledMetadata(t *testing.T) {
	// The central claim of the xml2wire design: registering from the XML
	// description produces exactly the format that compiled-in PBIO
	// metadata (Figure 8) produces — same layout, same ID, same encoding.
	ctx, err := pbio.NewContext(machine.Sparc)
	if err != nil {
		t.Fatal(err)
	}
	set, err := RegisterDocument(ctx, []byte(schemaB))
	if err != nil {
		t.Fatal(err)
	}
	fXML, ok := set.Lookup("ASDOffEvent")
	if !ok {
		t.Fatal("ASDOffEvent not registered")
	}

	ctx2, err := pbio.NewContext(machine.Sparc)
	if err != nil {
		t.Fatal(err)
	}
	fNative, err := ctx2.Register("ASDOffEvent", []pbio.IOField{
		{Name: "cntrID", Type: "string", Size: 4, Offset: 0},
		{Name: "arln", Type: "string", Size: 4, Offset: 4},
		{Name: "fltNum", Type: "integer", Size: 4, Offset: 8},
		{Name: "equip", Type: "string", Size: 4, Offset: 12},
		{Name: "org", Type: "string", Size: 4, Offset: 16},
		{Name: "dest", Type: "string", Size: 4, Offset: 20},
		{Name: "off", Type: "unsigned integer[5]", Size: 4, Offset: 24},
		{Name: "eta", Type: "unsigned integer[eta_count]", Size: 4, Offset: 44},
		{Name: "eta_count", Type: "integer", Size: 4, Offset: 48},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fXML.ID != fNative.ID {
		t.Errorf("xml2wire and compiled-in formats differ:\n%+v\n%+v",
			fXML.IOFields(), fNative.IOFields())
	}
	if fXML.Size != 52 {
		t.Errorf("size = %d, want 52 (Table 1)", fXML.Size)
	}
}

func TestRegisterSchemaSynthesizesCountField(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.Sparc)
	set, err := RegisterDocument(ctx, []byte(schemaB))
	if err != nil {
		t.Fatal(err)
	}
	f := set.Root()
	cf, ok := f.FieldByName("eta_count")
	if !ok {
		t.Fatal("eta_count not synthesized")
	}
	if cf.Kind != pbio.Int || cf.ElemSize != 4 {
		t.Errorf("eta_count = %+v", cf)
	}
	// Placed immediately after eta, like the C struct in Figure 7.
	eta, _ := f.FieldByName("eta")
	if cf.Offset != eta.Offset+eta.Slot {
		t.Errorf("eta_count at %d, eta slot ends at %d", cf.Offset, eta.Offset+eta.Slot)
	}
}

func TestRegisterSchemaNested(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.Sparc)
	set, err := RegisterDocument(ctx, []byte(schemaCD))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Formats) != 2 {
		t.Fatalf("formats = %d", len(set.Formats))
	}
	three := set.Root()
	if three.Name != "threeASDOffs" {
		t.Fatalf("root = %q", three.Name)
	}
	one, _ := three.FieldByName("one")
	if one.Kind != pbio.Nested || one.Nested.Name != "ASDOffEvent" {
		t.Errorf("one = %+v", one)
	}
	// Encode/decode through the composed format.
	rec := pbio.Record{
		"one":  pbio.Record{"cntrID": "ZTL", "fltNum": 7, "off": []uint64{1, 2, 3, 4, 5}},
		"bart": 1.5,
		"two":  pbio.Record{"eta": []uint64{9}},
		"lisa": 2.5,
	}
	data, err := three.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := three.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if out["bart"] != 1.5 {
		t.Errorf("bart = %v", out["bart"])
	}
	two := out["two"].(pbio.Record)
	if !reflect.DeepEqual(two["eta"], []uint64{9}) {
		t.Errorf("two.eta = %v", two["eta"])
	}
}

func TestRegisterSchemaArchDependence(t *testing.T) {
	// "integer may be a 2-word type on some machines and a 4-word type on
	// others" — the same schema must produce per-arch layouts.
	s, err := xmlschema.ParseString(schemaB)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	for _, arch := range []*machine.Arch{machine.X86, machine.X86_64, machine.Legacy16} {
		ctx, _ := pbio.NewContext(arch)
		set, err := RegisterSchema(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		sizes[arch.Name] = set.Root().Size
	}
	if sizes["x86"] != 52 {
		t.Errorf("x86 size = %d, want 52", sizes["x86"])
	}
	if sizes["x86-64"] != 104 {
		// cntrID 0, arln 8, fltNum 16 (int, 4 bytes + pad), equip 24,
		// org 32, dest 40, off[5] of 8-byte longs 48..88, eta ptr 88,
		// eta_count 96..100, tail pad to 104.
		t.Errorf("x86-64 size = %d, want 104", sizes["x86-64"])
	}
	if sizes["legacy16"] >= sizes["x86"] {
		t.Errorf("legacy16 size = %d, should be smaller than x86's %d",
			sizes["legacy16"], sizes["x86"])
	}
}

func TestRegisterSchemaCountedArrayUsesDeclaredField(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
	  <xsd:complexType name="T">
	    <xsd:element name="n" type="xsd:integer"/>
	    <xsd:element name="vals" type="xsd:double" minOccurs="0" maxOccurs="n"/>
	  </xsd:complexType>
	</xsd:schema>`
	ctx, _ := pbio.NewContext(machine.X86_64)
	set, err := RegisterDocument(ctx, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	f := set.Root()
	if len(f.Fields) != 2 {
		t.Fatalf("fields = %d (no synthesis expected)", len(f.Fields))
	}
	vals, _ := f.FieldByName("vals")
	if !vals.Dynamic || vals.CountField != "n" {
		t.Errorf("vals = %+v", vals)
	}
}

func TestRegisterSchemaRejectsDynamicStringArrays(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
	  <xsd:complexType name="T">
	    <xsd:element name="names" type="xsd:string" minOccurs="0" maxOccurs="*"/>
	  </xsd:complexType>
	</xsd:schema>`
	ctx, _ := pbio.NewContext(machine.X86_64)
	if _, err := RegisterDocument(ctx, []byte(src)); !errors.Is(err, ErrUnsupportedSchema) {
		t.Errorf("err = %v, want ErrUnsupportedSchema", err)
	}
}

func TestRegisterSchemaAllPrimitives(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="All">
	    <xsd:element name="s" type="xsd:string"/>
	    <xsd:element name="b" type="xsd:byte"/>
	    <xsd:element name="ub" type="xsd:unsignedByte"/>
	    <xsd:element name="sh" type="xsd:short"/>
	    <xsd:element name="ush" type="xsd:unsignedShort"/>
	    <xsd:element name="i" type="xsd:int"/>
	    <xsd:element name="ui" type="xsd:unsignedInt"/>
	    <xsd:element name="l" type="xsd:long"/>
	    <xsd:element name="ul" type="xsd:unsignedLong"/>
	    <xsd:element name="f" type="xsd:float"/>
	    <xsd:element name="d" type="xsd:double"/>
	    <xsd:element name="bool" type="xsd:boolean"/>
	    <xsd:element name="c" type="xsd:char"/>
	  </xsd:complexType>
	</xsd:schema>`
	ctx, _ := pbio.NewContext(machine.X86_64)
	set, err := RegisterDocument(ctx, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	f := set.Root()
	rec := pbio.Record{
		"s": "x", "b": -5, "ub": 200, "sh": -1000, "ush": 50000,
		"i": -100000, "ui": 3000000000, "l": int64(-1 << 40), "ul": uint64(1) << 60,
		"f": float32(1.5), "d": 2.5, "bool": true, "c": int64('q'),
	}
	data, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if out["b"] != int64(-5) || out["ub"] != uint64(200) || out["sh"] != int64(-1000) {
		t.Errorf("small ints: %v %v %v", out["b"], out["ub"], out["sh"])
	}
	if out["l"] != int64(-1<<40) || out["ul"] != uint64(1)<<60 {
		t.Errorf("longs: %v %v", out["l"], out["ul"])
	}
	if out["f"] != 1.5 || out["d"] != 2.5 || out["bool"] != true || out["c"] != int64('q') {
		t.Errorf("rest: %v %v %v %v", out["f"], out["d"], out["bool"], out["c"])
	}
}

func TestRegisterFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "asdoff.xsd")
	if err := os.WriteFile(path, []byte(schemaB), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, _ := pbio.NewContext(machine.Sparc)
	set, err := RegisterFile(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if set.Root().Size != 52 {
		t.Errorf("size = %d", set.Root().Size)
	}
	if _, err := RegisterFile(ctx, filepath.Join(dir, "missing.xsd")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRegisterDocumentBadXML(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.X86)
	if _, err := RegisterDocument(ctx, []byte("<not-a-schema/>")); err == nil {
		t.Error("bad schema accepted")
	}
}

func TestDumpIOFields(t *testing.T) {
	s, err := xmlschema.ParseString(schemaCD)
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := pbio.NewContext(machine.Sparc)
	set, err := RegisterSchema(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	dump := make(map[string][]pbio.IOField)
	for _, f := range set.Formats {
		dump[f.Name] = f.IOFields()
	}
	asd := dump["ASDOffEvent"]
	if len(asd) != 9 { // 8 elements + synthesized eta_count
		t.Fatalf("ASDOffEvent fields = %d", len(asd))
	}
	if asd[7].Type != "unsigned integer[eta_count]" {
		t.Errorf("eta type = %q", asd[7].Type)
	}
	three := dump["threeASDOffs"]
	if len(three) != 5 || three[0].Type != "ASDOffEvent" {
		t.Errorf("threeASDOffs = %+v", three)
	}
}

func TestFormatSetLookupMiss(t *testing.T) {
	ctx, _ := pbio.NewContext(machine.X86)
	set, err := RegisterDocument(ctx, []byte(schemaB))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set.Lookup("NoSuch"); ok {
		t.Error("Lookup(NoSuch) succeeded")
	}
}
