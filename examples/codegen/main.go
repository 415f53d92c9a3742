// Generated message types: flight_gen.go in this directory was produced by
//
//	go run ./cmd/xml2gen -file examples/codegen/flight.xsd -package main \
//	    -const FlightSchemaDocument -register RegisterFlightSchema \
//	    -out examples/codegen/flight_gen.go
//
// from flight.xsd (the paper's Figure 9 schema). This program uses the
// generated registration helper, struct and binding — no hand-written
// marshaling, and the wire format is still driven by the open XML
// metadata. internal/gen's tests keep the checked-in file in sync with the
// generator.
package main

import (
	"fmt"
	"log"

	"openmeta"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		return err
	}
	set, err := RegisterFlightSchema(ctx)
	if err != nil {
		return err
	}
	binding, err := BindASDOffEvent(set)
	if err != nil {
		return err
	}

	out := ASDOffEvent{
		CntrID: "ZTL", Arln: "DL", FltNum: 1842, Equip: "B757",
		Org: "ATL", Dest: "MCO",
		Off: [5]uint64{10, 20, 30, 40, 50}, Eta: []uint64{3600, 3660},
	}
	wire, err := binding.Encode(&out)
	if err != nil {
		return err
	}
	fmt.Printf("encoded generated struct: %d bytes NDR (format id %s)\n",
		len(wire), binding.Format.ID)

	var in ASDOffEvent
	if err := binding.Decode(wire, &in); err != nil {
		return err
	}
	fmt.Printf("decoded: %s%d %s->%s, %d eta updates\n",
		in.Arln, in.FltNum, in.Org, in.Dest, len(in.Eta))

	// Generated types interoperate with generic consumers: the same bytes
	// decode through the discovered format alone.
	rec, err := binding.Format.Decode(wire)
	if err != nil {
		return err
	}
	fmt.Printf("same bytes, generic consumer: cntrID=%v fltNum=%v\n",
		rec["cntrID"], rec["fltNum"])
	return nil
}
