// Format evolution without recompilation — the usability claim at the heart
// of the paper. A consumer built against version 1 of a message format
// keeps working, unchanged and unrecompiled, while the producer moves to
// version 2 with new fields:
//
//  1. the metadata repository serves FlightStatus v1; producer and consumer
//     both discover it and exchange records;
//  2. the operator updates the schema document on the repository (adds
//     gate and delayMinutes fields) — a data change, not a code change;
//  3. the producer re-discovers, registers v2 and publishes richer records;
//  4. the old consumer's binding tolerates the added fields (PBIO's
//     restricted format evolution) and keeps extracting what it knows,
//     while a new consumer sees the full v2 content.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"openmeta"
)

const schemaV1 = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="FlightStatus">
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="status" type="xsd:string" />
  </xsd:complexType>
</xsd:schema>`

const schemaV2 = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="FlightStatus">
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="dest" type="xsd:string" />
    <xsd:element name="status" type="xsd:string" />
    <xsd:element name="gate" type="xsd:string" />
    <xsd:element name="delayMinutes" type="xsd:integer" />
  </xsd:complexType>
</xsd:schema>`

// statusV1 is the consumer-side type, written when only v1 existed. It is
// never touched again in this program.
type statusV1 struct {
	FltNum int32  `pbio:"fltNum"`
	Dest   string `pbio:"dest"`
	Status string `pbio:"status"`
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Metadata repository.
	repo := openmeta.NewRepository()
	if err := repo.Put("FlightStatus", schemaV1); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: repo.Handler()}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	client, err := openmeta.NewDiscoveryClient("http://" + ln.Addr().String())
	if err != nil {
		return err
	}

	discover := func(who string) (*openmeta.Format, error) {
		client.Invalidate("FlightStatus") // always consult the repository
		pctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
		if err != nil {
			return nil, err
		}
		set, err := openmeta.DiscoverAndRegister(context.Background(), client, pctx, "FlightStatus")
		if err != nil {
			return nil, err
		}
		f := set.Root()
		fmt.Printf("%s discovered FlightStatus: %d fields, id %s\n", who, len(f.Fields), f.ID)
		return f, nil
	}

	// Phase 1: both sides speak v1.
	prodV1, err := discover("producer")
	if err != nil {
		return err
	}
	consumerFormat, err := discover("consumer")
	if err != nil {
		return err
	}
	consumerBinding, err := consumerFormat.Bind(statusV1{})
	if err != nil {
		return err
	}
	wire, err := prodV1.Encode(openmeta.Record{
		"fltNum": 1842, "dest": "MCO", "status": "BOARDING",
	})
	if err != nil {
		return err
	}
	var s statusV1
	if err := consumerBinding.Decode(wire, &s); err != nil {
		return err
	}
	fmt.Printf("consumer (v1 binary): flight %d to %s is %s\n\n", s.FltNum, s.Dest, s.Status)

	// Phase 2: the format evolves on the repository. No process restarts,
	// no recompilation — just a new document.
	fmt.Println("-- operator updates the schema document on the repository --")
	if err := repo.Put("FlightStatus", schemaV2); err != nil {
		return err
	}

	prodV2, err := discover("producer (restarted feed)")
	if err != nil {
		return err
	}
	wire2, err := prodV2.Encode(openmeta.Record{
		"fltNum": 1842, "dest": "MCO", "status": "DELAYED",
		"gate": "B23", "delayMinutes": 45,
	})
	if err != nil {
		return err
	}

	// The old consumer receives a v2 record. Its binding is rebuilt against
	// the *incoming* format (delivered as wire metadata in a real system) —
	// its compiled code and struct type are unchanged.
	incoming, err := openmeta.UnmarshalFormatMeta(openmeta.MarshalFormatMeta(prodV2))
	if err != nil {
		return err
	}
	oldBinding, err := incoming.Bind(statusV1{})
	if err != nil {
		return err
	}
	var s2 statusV1
	if err := oldBinding.Decode(wire2, &s2); err != nil {
		return err
	}
	fmt.Printf("old consumer (v1 binary, v2 record): flight %d to %s is %s\n",
		s2.FltNum, s2.Dest, s2.Status)

	// A new, fully dynamic consumer sees everything.
	rec, err := incoming.Decode(wire2)
	if err != nil {
		return err
	}
	fmt.Printf("new consumer (generic): flight %v %v at gate %v, delayed %v minutes\n",
		rec["fltNum"], rec["status"], rec["gate"], rec["delayMinutes"])
	return nil
}
