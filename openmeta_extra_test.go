package openmeta_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"openmeta"
	"openmeta/internal/airline"
	"openmeta/internal/core"
	"openmeta/internal/dcg"
	"openmeta/internal/gen"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlschema"
)

func TestFacadeRecordFiles(t *testing.T) {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.ArchSparc))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw, err := pbio.NewFileWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gen := airline.NewFlightGen(3)
	for i := 0; i < 5; i++ {
		if err := fw.WriteValue(set.Root(), gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	rctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := pbio.NewFileReader(&buf, rctx)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, _, err := fr.ReadValue()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 5 {
		t.Errorf("records = %d", n)
	}
}

func TestFacadeSchemaGenerationRoundTrip(t *testing.T) {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.SchemaForFormats("urn:rt", set.Formats...)
	if err != nil {
		t.Fatal(err)
	}
	doc := xmlschema.MarshalString(s)
	ctx2, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	set2, err := openmeta.RegisterSchemaDocument(ctx2, doc)
	if err != nil {
		t.Fatal(err)
	}
	if set2.Root().ID != set.Root().ID {
		t.Error("schema generation round trip changed the format")
	}
}

func TestFacadeMatching(t *testing.T) {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	f := set.Root()
	record, err := f.Encode(openmeta.Record{"cntrID": "Z", "off": []uint64{1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := core.MatchBinary([]*openmeta.Format{f}, record)
	if err != nil {
		t.Fatal(err)
	}
	if !scores[0].Exact {
		t.Errorf("own record did not match exactly: %+v", scores[0])
	}
	msg, err := openmeta.EncodeXMLText(f, openmeta.Record{"off": []uint64{1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	xs, err := core.MatchXML([]*openmeta.Format{f}, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !xs[0].Exact {
		t.Errorf("own XML message did not match exactly: %+v", xs[0])
	}
}

func TestFacadeDeriveSubset(t *testing.T) {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := pbio.DeriveSubset(set.Root(), []string{"cntrID", "dest"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Fields) != 2 {
		t.Errorf("fields = %d", len(sub.Fields))
	}
	plan, err := dcg.Compile(set.Root(), sub)
	if err != nil {
		t.Fatal(err)
	}
	full, err := set.Root().Encode(openmeta.Record{"cntrID": "ZTL", "dest": "MCO", "fltNum": 9})
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := plan.Convert(full)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sub.Decode(sliced)
	if err != nil {
		t.Fatal(err)
	}
	if rec["dest"] != "MCO" {
		t.Errorf("dest = %v", rec["dest"])
	}
	if _, present := rec["fltNum"]; present {
		t.Error("dropped field leaked through projection")
	}
}

func TestFacadeWatcher(t *testing.T) {
	src := openmeta.StaticSchemas(airline.Schemas())
	w := openmeta.WatchSchemas(src, 10*time.Millisecond)
	defer w.Close()
	w.Add("WeatherObs")
	select {
	case u := <-w.Updates():
		if u.Err != nil || u.Schema == nil {
			t.Fatalf("update = %+v", u)
		}
		if u.Schema.Types[0].Name != "WeatherObs" {
			t.Errorf("schema = %q", u.Schema.Types[0].Name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no update")
	}
}

func TestFacadeGenerateGo(t *testing.T) {
	src, err := gen.GoSource(flightSchema, gen.Options{Package: "msgs"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "type ASDOffEvent struct") {
		t.Errorf("generated source missing struct:\n%s", src)
	}
}

func TestFacadeScopedSubscription(t *testing.T) {
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
	if err := sub.SubscribeFields(airline.FlightStream, "cntrID"); err != nil {
		t.Fatal(err)
	}
	pub, err := openmeta.DialPublisher(broker.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	rec := openmeta.Record{"cntrID": "ZME", "fltNum": 4242}
	ev := openmeta.ReceiveEvents(t, sub, 1, func() {
		if err := pub.PublishRecord(airline.FlightStream, f, rec); err != nil {
			t.Fatal(err)
		}
	})[0]
	out, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if out["cntrID"] != "ZME" {
		t.Errorf("cntrID = %v", out["cntrID"])
	}
	if _, present := out["fltNum"]; present {
		t.Error("hidden field delivered")
	}
}
