// Dynamic incorporation of message formats at run time — the paper's §7
// future work, running. A consumer watches the metadata repository; when
// the operator publishes a new version of a format (or a brand-new format),
// the watcher delivers the schema and the consumer re-registers and keeps
// processing, all without restarting.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"openmeta"
)

const v1 = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="GateEvent">
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="gate" type="xsd:string" />
  </xsd:complexType>
</xsd:schema>`

const v2 = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="GateEvent">
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="gate" type="xsd:string" />
    <xsd:element name="remote" type="xsd:boolean" />
  </xsd:complexType>
</xsd:schema>`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Metadata repository with v1 of the format.
	repo := openmeta.NewRepository()
	if err := repo.Put("GateEvent", v1); err != nil {
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
	// Poll aggressively for the demo; production would use minutes.
	watcher := openmeta.WatchSchemas(noCacheSource{client}, 50*time.Millisecond)
	defer watcher.Close()
	watcher.Add("GateEvent")

	// The consumer's live state: re-built on every update.
	var format *openmeta.Format
	apply := func(u openmeta.SchemaUpdate) error {
		if u.Err != nil {
			fmt.Printf("watcher: discovery failing: %v\n", u.Err)
			return nil
		}
		ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
		if err != nil {
			return err
		}
		set, err := openmeta.RegisterSchema(ctx, u.Schema)
		if err != nil {
			return err
		}
		format = set.Root()
		fmt.Printf("watcher: incorporated %q v-id %s (%d fields) without restarting\n",
			format.Name, format.ID, len(format.Fields))
		return nil
	}

	next := func() openmeta.SchemaUpdate {
		select {
		case u := <-watcher.Updates():
			return u
		case <-time.After(5 * time.Second):
			log.Fatal("no watcher update")
			return openmeta.SchemaUpdate{}
		}
	}

	// Initial version arrives and records flow.
	if err := apply(next()); err != nil {
		return err
	}
	wire, err := format.Encode(openmeta.Record{"fltNum": 1842, "gate": "B23"})
	if err != nil {
		return err
	}
	rec, err := format.Decode(wire)
	if err != nil {
		return err
	}
	fmt.Printf("processing v1 record: flight %v at gate %v\n\n", rec["fltNum"], rec["gate"])

	// The operator publishes v2. The running consumer picks it up live.
	fmt.Println("-- operator publishes GateEvent v2 on the repository --")
	if err := repo.Put("GateEvent", v2); err != nil {
		return err
	}
	if err := apply(next()); err != nil {
		return err
	}
	wire2, err := format.Encode(openmeta.Record{"fltNum": 1842, "gate": "T4", "remote": true})
	if err != nil {
		return err
	}
	rec2, err := format.Decode(wire2)
	if err != nil {
		return err
	}
	fmt.Printf("processing v2 record: flight %v at gate %v (remote stand: %v)\n",
		rec2["fltNum"], rec2["gate"], rec2["remote"])
	return nil
}

// noCacheSource drops the discovery client's cache entry before every poll
// so the demo reacts immediately. The entry's ETag goes with it, so every
// poll is a full GET of the document.
type noCacheSource struct {
	c *openmeta.DiscoveryClient
}

func (s noCacheSource) Schema(ctx context.Context, name string) (*openmeta.Schema, error) {
	s.c.Invalidate(name)
	return s.c.Schema(ctx, name)
}

func (s noCacheSource) Describe() string { return "no-cache " + s.c.Describe() }
