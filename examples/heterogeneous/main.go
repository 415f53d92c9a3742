// Heterogeneous exchange: the byte-order, field-alignment and type-size
// issues the paper's NDR design addresses, made visible. A record is
// encoded in the natural representation of a simulated 32-bit big-endian
// SPARC, shipped over the PBIO wire protocol (format metadata once, then
// records by ID), and received on this machine (64-bit little-endian),
// where a conversion plan compiled once per format pair makes it right.
package main

import (
	"fmt"
	"log"
	"net"

	"openmeta"
)

const schema = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Telemetry">
    <xsd:element name="sensor" type="xsd:string" />
    <xsd:element name="seq" type="xsd:integer" />
    <xsd:element name="value" type="xsd:double" />
    <xsd:element name="samples" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Sender: simulated SPARC (big-endian, 4-byte longs and pointers).
	sparcCtx, err := openmeta.New(openmeta.WithArch(openmeta.ArchSparc))
	if err != nil {
		return err
	}
	sparcSet, err := openmeta.RegisterSchemaDocument(sparcCtx, schema)
	if err != nil {
		return err
	}
	sparcFmt := sparcSet.Root()

	// Receiver: this machine's profile.
	nativeCtx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		return err
	}
	nativeSet, err := openmeta.RegisterSchemaDocument(nativeCtx, schema)
	if err != nil {
		return err
	}
	nativeFmt := nativeSet.Root()

	fmt.Printf("same XML schema, two layouts:\n")
	fmt.Printf("  %-8s %-14s record=%3dB  seq@%d value@%d (long=4, ptr=4, big-endian)\n",
		"sender:", openmeta.ArchSparc.Name, sparcFmt.Size,
		fieldOffset(sparcFmt, "seq"), fieldOffset(sparcFmt, "value"))
	fmt.Printf("  %-8s %-14s record=%3dB  seq@%d value@%d (long=8, ptr=8, little-endian)\n\n",
		"receiver:", openmeta.NativeArch.Name, nativeFmt.Size,
		fieldOffset(nativeFmt, "seq"), fieldOffset(nativeFmt, "value"))

	rec := openmeta.Record{
		"sensor": "wing-strain-04", "seq": 258, "value": 0.15625,
		"samples": []uint64{0x01020304, 0xAABBCCDD},
	}

	// Ship it through the wire protocol over an in-process connection.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	sendErr := make(chan error, 1)
	go func() {
		defer c1.Close()
		w := openmeta.NewWireWriter(c1)
		wire, err := sparcFmt.Encode(rec)
		if err != nil {
			sendErr <- err
			return
		}
		fmt.Printf("sender NDR bytes (%d): % x ...\n", len(wire), wire[:16])
		sendErr <- w.WriteRecord(sparcFmt, wire)
	}()

	recvCatalog, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		return err
	}
	r := openmeta.NewWireReader(c2, recvCatalog)
	srcFmt, data, err := r.ReadRecord()
	if err != nil {
		return err
	}
	if err := <-sendErr; err != nil {
		return err
	}
	fmt.Printf("received format %q from wire metadata: origin %s, %s\n",
		srcFmt.Name, srcFmt.Arch.Name, srcFmt.Arch.Order)

	// Receiver makes right, once per format pair.
	cache := openmeta.NewPlanCache()
	plan, err := cache.Plan(srcFmt, nativeFmt)
	if err != nil {
		return err
	}
	fmt.Printf("compiled conversion plan: %d instructions (identity=%v)\n",
		plan.Ops(), plan.Identity)
	converted, err := plan.Convert(data)
	if err != nil {
		return err
	}
	fmt.Printf("receiver NDR bytes (%d): % x ...\n", len(converted), converted[:16])

	out, err := nativeFmt.Decode(converted)
	if err != nil {
		return err
	}
	fmt.Printf("\ndecoded on receiver: sensor=%v seq=%v value=%v samples=%x\n",
		out["sensor"], out["seq"], out["value"], out["samples"])

	// The homogeneous case for contrast: the plan degenerates to a copy.
	idPlan, err := cache.Plan(srcFmt, srcFmt)
	if err != nil {
		return err
	}
	fmt.Printf("homogeneous plan for comparison: %d instructions (identity=%v) — receive is a memcpy\n",
		idPlan.Ops(), idPlan.Identity)
	return nil
}

func fieldOffset(f *openmeta.Format, name string) int {
	fl, ok := f.FieldByName(name)
	if !ok {
		return -1
	}
	return fl.Offset
}
