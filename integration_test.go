package openmeta_test

// Integration test of the whole system composed the way the paper's
// airline scenario composes it: metadata repository -> run-time discovery
// -> xml2wire registration on a simulated foreign architecture -> event
// backbone with a scoped and a full subscriber -> archival to a
// self-describing record file -> replay on the local architecture ->
// format evolution on the repository picked up by a watcher.

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openmeta"
	"openmeta/internal/airline"
	"openmeta/internal/pbio"
)

func TestFullSystemIntegration(t *testing.T) {
	// --- Metadata repository ---------------------------------------------
	repo := openmeta.NewRepository()
	for name, doc := range airline.Schemas() {
		if err := repo.Put(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()
	client, err := openmeta.NewDiscoveryClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resolver := openmeta.NewResolver(client, openmeta.StaticSchemas(airline.Schemas()))

	// --- Event backbone ----------------------------------------------------
	broker, err := openmeta.ListenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	// --- Publisher: discovers format, registers for big-endian SPARC ------
	pubCtx, err := openmeta.New(openmeta.WithArch(openmeta.ArchSparc))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.DiscoverAndRegister(context.Background(), resolver, pubCtx, "ASDOffEvent")
	if err != nil {
		t.Fatal(err)
	}
	flightFmt := set.Root()

	// --- Consumers ---------------------------------------------------------
	fullSub, err := openmeta.DialSubscriber(broker.Addr().String(), mustCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer fullSub.Close()
	if err := fullSub.Subscribe(airline.FlightStream); err != nil {
		t.Fatal(err)
	}
	scopedSub, err := openmeta.DialSubscriber(broker.Addr().String(), mustCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer scopedSub.Close()
	if err := scopedSub.SubscribeFields(airline.FlightStream, "cntrID", "fltNum"); err != nil {
		t.Fatal(err)
	}

	pub, err := openmeta.DialPublisher(broker.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Publish until both subscribers have their events (subscription
	// registration races the first publish).
	gen := airline.NewFlightGen(11)
	rec := gen.Next()
	const wantEach = 3
	publish := func() {
		if err := pub.PublishRecord(airline.FlightStream, flightFmt, rec); err != nil {
			t.Fatal(err)
		}
	}
	fullEvents := openmeta.ReceiveEvents(t, fullSub, wantEach, publish)
	scopedEvents := openmeta.ReceiveEvents(t, scopedSub, wantEach, publish)

	// Full consumer sees the complete record, cross-architecture.
	fr, err := fullEvents[0].Decode()
	if err != nil {
		t.Fatal(err)
	}
	if fr["cntrID"] != rec["cntrID"] || fr["fltNum"] != rec["fltNum"].(int64) {
		t.Errorf("full record = %v", fr)
	}
	// Scoped consumer sees only its slice.
	sr, err := scopedEvents[0].Decode()
	if err != nil {
		t.Fatal(err)
	}
	if _, present := sr["dest"]; present {
		t.Error("scoped subscriber received hidden field")
	}
	if sr["cntrID"] != rec["cntrID"] {
		t.Errorf("scoped record = %v", sr)
	}

	// --- Archive the received events to a self-describing file ------------
	var archive strings.Builder
	fw, err := pbio.NewFileWriter(noopWriteCloser{&archive})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range fullEvents {
		if err := fw.WriteRecord(ev.Format, ev.Data); err != nil {
			t.Fatal(err)
		}
	}
	// --- Replay on the local architecture, no prior format knowledge ------
	rdr, err := pbio.NewFileReader(strings.NewReader(archive.String()), mustCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for {
		f, data, err := rdr.ReadRecord()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if out["cntrID"] != rec["cntrID"] {
			t.Errorf("replayed record = %v", out)
		}
		replayed++
	}
	if replayed != wantEach {
		t.Errorf("replayed = %d", replayed)
	}

	// --- Evolution via the watcher ----------------------------------------
	w := openmeta.WatchSchemas(freshSource{client}, 20*time.Millisecond)
	defer w.Close()
	w.Add("ASDOffEvent")
	first := nextUpdate(t, w)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	evolved := strings.Replace(airline.FlightSchema,
		`<xsd:element name="eta" `,
		`<xsd:element name="squawk" type="xsd:integer" /><xsd:element name="eta" `, 1)
	if err := repo.Put("ASDOffEvent", evolved); err != nil {
		t.Fatal(err)
	}
	second := nextUpdate(t, w)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	found := false
	for _, e := range second.Schema.Types[0].Elements {
		if e.Name == "squawk" {
			found = true
		}
	}
	if !found {
		t.Error("evolved schema missing the new field")
	}
}

func mustCtx(t *testing.T) *openmeta.Context {
	t.Helper()
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

type noopWriteCloser struct{ w io.Writer }

func (n noopWriteCloser) Write(p []byte) (int, error) { return n.w.Write(p) }
func (n noopWriteCloser) Close() error                { return nil }

// freshSource forces revalidation each poll so the test reacts promptly.
type freshSource struct {
	c *openmeta.DiscoveryClient
}

func (s freshSource) Schema(ctx context.Context, name string) (*openmeta.Schema, error) {
	s.c.Invalidate(name)
	return s.c.Schema(ctx, name)
}
func (s freshSource) Describe() string { return "fresh" }

func nextUpdate(t *testing.T, w *openmeta.SchemaWatcher) openmeta.SchemaUpdate {
	t.Helper()
	select {
	case u, ok := <-w.Updates():
		if !ok {
			t.Fatal("updates closed")
		}
		return u
	case <-time.After(10 * time.Second):
		t.Fatal("no watcher update")
	}
	panic("unreachable")
}
