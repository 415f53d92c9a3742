package openmeta_test

import (
	"context"
	"net"
	"net/http/httptest"
	"reflect"
	"testing"

	"openmeta"
	"openmeta/internal/airline"
	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/xdr"
	"openmeta/internal/xmlwire"
)

const flightSchema = airline.FlightSchema

func TestFacadeQuickstartFlow(t *testing.T) {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := set.Lookup("ASDOffEvent")
	if !ok {
		t.Fatal("format not registered")
	}
	wire, err := f.Encode(openmeta.Record{
		"cntrID": "ZTL", "fltNum": 1842, "dest": "MCO",
		"off": []uint64{1, 2, 3, 4, 5}, "eta": []uint64{100},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if rec["dest"] != "MCO" || rec["fltNum"] != int64(1842) {
		t.Errorf("rec = %v", rec)
	}
}

func TestFacadeCrossArchPlan(t *testing.T) {
	sparc, err := openmeta.New(openmeta.WithArch(openmeta.ArchSparc))
	if err != nil {
		t.Fatal(err)
	}
	x64, err := openmeta.New(openmeta.WithArch(machine.X86_64))
	if err != nil {
		t.Fatal(err)
	}
	setS, err := openmeta.RegisterSchemaDocument(sparc, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	setX, err := openmeta.RegisterSchemaDocument(x64, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dcg.Compile(setS.Root(), setX.Root())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := setS.Root().Encode(openmeta.Record{"cntrID": "ZID", "eta": []uint64{7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := plan.Convert(wire)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := setX.Root().Decode(conv)
	if err != nil {
		t.Fatal(err)
	}
	if rec["cntrID"] != "ZID" || !reflect.DeepEqual(rec["eta"], []uint64{7, 8}) {
		t.Errorf("rec = %v", rec)
	}
}

func TestFacadeDiscoveryChain(t *testing.T) {
	repo := openmeta.NewRepository()
	if err := repo.Put("ASDOffEvent", flightSchema); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()
	client, err := openmeta.NewDiscoveryClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resolver := openmeta.NewResolver(client, openmeta.StaticSchemas(airline.Schemas()))

	pctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.DiscoverAndRegister(context.Background(), resolver, pctx, "ASDOffEvent")
	if err != nil {
		t.Fatal(err)
	}
	if set.Root().Name != "ASDOffEvent" {
		t.Errorf("root = %q", set.Root().Name)
	}

	// Fallback path: a name only the compiled-in source knows.
	set2, err := openmeta.DiscoverAndRegister(context.Background(), resolver, pctx, "WeatherObs")
	if err != nil {
		t.Fatal(err)
	}
	if set2.Root().Name != "WeatherObs" {
		t.Errorf("root = %q", set2.Root().Name)
	}
}

func TestFacadeEventBackbone(t *testing.T) {
	broker, err := openmeta.ListenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	pctx, err := openmeta.New(openmeta.WithArch(openmeta.ArchSparc))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(pctx, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := set.Root()

	sctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := openmeta.DialSubscriber(broker.Addr().String(), sctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(airline.FlightStream); err != nil {
		t.Fatal(err)
	}

	pub, err := openmeta.DialPublisher(broker.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	gen := airline.NewFlightGen(5)
	rec := gen.Next()
	ev := openmeta.ReceiveEvents(t, sub, 1, func() {
		if err := pub.PublishRecord(airline.FlightStream, f, rec); err != nil {
			t.Fatal(err)
		}
	})[0]
	if ev.Stream != airline.FlightStream {
		t.Errorf("stream = %q", ev.Stream)
	}
	out, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if out["cntrID"] != rec["cntrID"] {
		t.Errorf("cntrID = %v, want %v", out["cntrID"], rec["cntrID"])
	}
}

func TestFacadeBaselineCodecs(t *testing.T) {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := set.Root()
	rec := openmeta.Record{"cntrID": "ZTL", "fltNum": 7, "off": []uint64{1, 2, 3, 4, 5}}

	xdrData, err := openmeta.EncodeXDR(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := xdr.DecodeRecord(f, xdrData)
	if err != nil {
		t.Fatal(err)
	}
	if back["fltNum"] != int64(7) {
		t.Errorf("xdr fltNum = %v", back["fltNum"])
	}

	xmlData, err := openmeta.EncodeXMLText(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := xmlwire.DecodeRecord(f, xmlData)
	if err != nil {
		t.Fatal(err)
	}
	if back2["cntrID"] != "ZTL" {
		t.Errorf("xml cntrID = %v", back2["cntrID"])
	}
}

func TestFacadeMetaRoundTripAndWire(t *testing.T) {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.ArchSparc))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := set.Root()
	meta := openmeta.MarshalFormatMeta(f)
	g, err := openmeta.UnmarshalFormatMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != f.ID {
		t.Error("meta round trip changed ID")
	}

	// Wire writer/reader over an in-process connection.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		w := openmeta.NewWireWriter(c1)
		data, err := f.Encode(openmeta.Record{"cntrID": "ZNY"})
		if err == nil {
			_ = w.WriteRecord(f, data)
		}
	}()
	rctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	r := openmeta.NewWireReader(c2, rctx)
	gf, data, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := gf.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec["cntrID"] != "ZNY" {
		t.Errorf("cntrID = %v", rec["cntrID"])
	}
}
