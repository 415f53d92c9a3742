// Quickstart: define a message format in XML Schema, register it at run
// time with xml2wire, and move records in efficient binary NDR form — both
// through the dynamic generic-record API (for formats discovered at run
// time) and through a bound Go struct (for formats the program knows).
package main

import (
	"fmt"
	"log"

	"openmeta"
)

// The message format lives in data, not code: change this document — or
// serve it from a metadata repository — and no recompilation is needed.
const schema = `<?xml version="1.0"?>
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

// Flight mirrors the C structure of the paper's Figure 7 as a Go type.
type Flight struct {
	CntrID string `pbio:"cntrID"`
	Arln   string `pbio:"arln"`
	FltNum int32  `pbio:"fltNum"`
	Equip  string `pbio:"equip"`
	Org    string `pbio:"org"`
	Dest   string `pbio:"dest"`
	Off    [5]uint32
	Eta    []uint32
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Binding: lay the format out for this machine and register it.
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		return err
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, schema)
	if err != nil {
		return err
	}
	format := set.Root()
	fmt.Printf("registered %q: %d fields, %d-byte records, id %s\n",
		format.Name, len(format.Fields), format.Size, format.ID)

	// Marshaling, dynamic flavor: generic records for formats that were
	// discovered at run time.
	wire, err := format.Encode(openmeta.Record{
		"cntrID": "ZTL", "arln": "DL", "fltNum": 1842,
		"equip": "B757", "org": "ATL", "dest": "MCO",
		"off": []uint64{10, 20, 30, 40, 50},
		"eta": []uint64{3600, 3720},
	})
	if err != nil {
		return err
	}
	fmt.Printf("encoded record: %d bytes of NDR\n", len(wire))
	rec, err := format.Decode(wire)
	if err != nil {
		return err
	}
	fmt.Printf("decoded generically: flight %v %v -> %v, %d eta updates\n",
		rec["arln"], rec["fltNum"], rec["dest"], len(rec["eta"].([]uint64)))

	// Marshaling, typed flavor: bind the format to a Go struct once, then
	// encode/decode without per-field lookups.
	binding, err := format.Bind(Flight{})
	if err != nil {
		return err
	}
	out := Flight{CntrID: "ZJX", Arln: "AA", FltNum: 901, Equip: "A320",
		Org: "MIA", Dest: "BOS", Off: [5]uint32{1, 2, 3, 4, 5}, Eta: []uint32{7200}}
	wire2, err := binding.Encode(&out)
	if err != nil {
		return err
	}
	var in Flight
	if err := binding.Decode(wire2, &in); err != nil {
		return err
	}
	fmt.Printf("decoded via binding: flight %s %d %s->%s eta %v\n",
		in.Arln, in.FltNum, in.Org, in.Dest, in.Eta)

	// The same record in the baseline wire formats, for scale.
	xdrBytes, err := openmeta.EncodeXDR(format, rec)
	if err != nil {
		return err
	}
	xmlBytes, err := openmeta.EncodeXMLText(format, rec)
	if err != nil {
		return err
	}
	fmt.Printf("wire sizes: NDR %dB, XDR %dB, XML text %dB (%.1fx)\n",
		len(wire), len(xdrBytes), len(xmlBytes), float64(len(xmlBytes))/float64(len(wire)))
	return nil
}
