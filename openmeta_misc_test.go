package openmeta_test

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"openmeta"
	"openmeta/internal/airline"
	"openmeta/internal/core"
	"openmeta/internal/discovery"
	"openmeta/internal/eventbus"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlschema"
)

func TestFacadeParseSchemaAndRegister(t *testing.T) {
	s, err := xmlschema.ParseString(flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	ctx := mustCtx(t)
	set, err := openmeta.RegisterSchema(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if set.Root().Name != "ASDOffEvent" {
		t.Errorf("root = %q", set.Root().Name)
	}
	if _, err := xmlschema.ParseString("<junk/>"); err == nil {
		t.Error("junk schema accepted")
	}
}

func TestFacadeServeRepositoryAndURLRegistration(t *testing.T) {
	repo := openmeta.NewRepository()
	if err := repo.Put("ASDOffEvent", flightSchema); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- http.Serve(ln, repo.Handler()) }()

	pctx := mustCtx(t)
	registerURL := func(url string) (*openmeta.FormatSet, error) {
		s, err := discovery.FetchURL(context.Background(), nil, url)
		if err != nil {
			return nil, err
		}
		return core.RegisterSchema(pctx, s)
	}
	set, err := registerURL("http://" + ln.Addr().String() + "/schemas/ASDOffEvent")
	if err != nil {
		t.Fatal(err)
	}
	if set.Root().Size == 0 {
		t.Error("empty format from URL registration")
	}
	if _, err := registerURL("http://" + ln.Addr().String() + "/schemas/NoSuch"); err == nil {
		t.Error("missing schema URL accepted")
	}
	ln.Close()
	<-done // Serve returns on listener close
}

func TestFacadeRegisterSchemaFileAndDirSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "WeatherObs.xsd")
	if err := os.WriteFile(path, []byte(airline.WeatherSchema), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := core.RegisterFile(mustCtx(t), path)
	if err != nil {
		t.Fatal(err)
	}
	if set.Root().Name != "WeatherObs" {
		t.Errorf("root = %q", set.Root().Name)
	}

	src := discovery.DirSource{Dir: dir}
	set2, err := openmeta.DiscoverAndRegister(context.Background(), src, mustCtx(t), "WeatherObs")
	if err != nil {
		t.Fatal(err)
	}
	if set2.Root().ID != set.Root().ID {
		t.Error("dir source produced a different format")
	}
}

func TestFacadeNewBrokerOnListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := eventbus.NewBroker(ln)
	defer b.Close()
	pub, err := openmeta.DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Announce("s"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCreateAndOpenRecordFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.pbio")
	fw, err := pbio.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(mustCtx(t), flightSchema)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteValue(set.Root(), openmeta.Record{"cntrID": "Z"}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := pbio.OpenFile(path, mustCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	_, rec, err := fr.ReadValue()
	if err != nil {
		t.Fatal(err)
	}
	if rec["cntrID"] != "Z" {
		t.Errorf("rec = %v", rec)
	}
}

func TestFacadeValidateRecord(t *testing.T) {
	const doc = `<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
	  <xsd:simpleType name="Gate">
	    <xsd:restriction base="xsd:string"><xsd:maxLength value="3"/></xsd:restriction>
	  </xsd:simpleType>
	  <xsd:complexType name="GateEvent">
	    <xsd:element name="gate" type="Gate"/>
	  </xsd:complexType>
	</xsd:schema>`
	s, err := xmlschema.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ValidateRecord(s, "GateEvent", openmeta.Record{"gate": "B23"}); err != nil {
		t.Errorf("conforming record rejected: %v", err)
	}
	if err := core.ValidateRecord(s, "GateEvent", openmeta.Record{"gate": "B23-REMOTE"}); err == nil {
		t.Error("over-length gate accepted")
	}
}
