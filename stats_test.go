package openmeta_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openmeta"
	"openmeta/internal/airline"
	"openmeta/internal/dcg"
	"openmeta/internal/discovery"
	"openmeta/internal/eventbus"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
	"openmeta/internal/trace"
)

// publishUntilReceived publishes rec repeatedly until sub receives an event
// — subscription registration at the broker races the first publish, so a
// single publish can be delivered to no one.
func publishUntilReceived(t *testing.T, pub *openmeta.Publisher, sub *openmeta.Subscriber, f *openmeta.Format, rec openmeta.Record) {
	t.Helper()
	openmeta.ReceiveEvents(t, sub, 1, func() {
		if err := pub.PublishRecord(airline.FlightStream, f, rec); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStatsQuickstartFlow runs the README quickstart plus a broker round
// trip and checks the process-wide registry's snapshot moved for every layer the
// flow touched. The default registry is shared across tests in the binary,
// so all assertions are on before/after deltas.
func TestStatsQuickstartFlow(t *testing.T) {
	before := obsv.Default().Snapshot()

	ctx, err := openmeta.New()
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, airline.FlightSchema)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := set.Lookup("ASDOffEvent")
	if !ok {
		t.Fatal("format not registered")
	}
	rec := openmeta.Record{
		"cntrID": "ZTL", "fltNum": 1842, "dest": "MCO",
		"off": []uint64{1, 2, 3, 4, 5}, "eta": []uint64{100},
	}
	wire, err := f.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Decode(wire); err != nil {
		t.Fatal(err)
	}

	broker, err := openmeta.ListenBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	subCtx, err := openmeta.New()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := openmeta.DialSubscriber(broker.Addr().String(), subCtx)
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
	publishUntilReceived(t, pub, sub, f, rec)

	delta := obsv.Delta(before, obsv.Default().Snapshot())
	for _, key := range []string{
		"pbio.formats.registered",
		"pbio.encode.calls",
		"pbio.encode.bytes",
		"pbio.decode.calls",
		"pbio.meta.marshals",
		"eventbus.published",
		"eventbus.delivered",
	} {
		if delta[key] <= 0 {
			t.Errorf("delta[%q] = %d, want > 0 (delta: %v)", key, delta[key], delta)
		}
	}
}

// TestStatsHandlerServesJSON pins the in-process snapshot the JSON stats
// handler used to serve: the default registry's Snapshot encodes as one flat JSON object
// of int64 values carrying the documented families. Over HTTP the same
// families are on /metrics (TestDebugHandlerEndpoints).
func TestStatsHandlerServesJSON(t *testing.T) {
	raw, err := json.Marshal(obsv.Default().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("snapshot is not a flat JSON object: %v", err)
	}
	for _, key := range []string{
		"eventbus.delivered",
		"dcg.plan_cache.hits",
		"pbio.formats.registered",
		"discovery.fetches",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("stats JSON missing key %q", key)
		}
	}
}

// TestDebugHandlerEndpoints checks every documented debug endpoint of the
// mux the daemons serve behind -debug-addr answers
// and is listed on the /debug index, that /metrics carries the documented
// families even before any traffic (instruments are created zero-valued at
// package init), and that retired endpoints are gone.
func TestDebugHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(obsv.DebugMux(obsv.Default()))
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}
	_, index := get("/debug")
	for _, path := range []string{
		"/metrics", "/debug/trace", "/debug/flight", "/debug/pprof/",
		"/healthz", "/readyz",
	} {
		if code, _ := get(path); code != 200 {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
		if !strings.Contains(index, `href="`+path+`"`) {
			t.Errorf("/debug index does not list %s", path)
		}
	}
	_, metrics := get("/metrics")
	for _, family := range []string{
		"eventbus_delivered",
		"dcg_plan_cache_hits",
		"pbio_formats_registered",
		"discovery_fetches",
	} {
		if !strings.Contains(metrics, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %q", family)
		}
	}
	// Retired endpoints are gone from the mux and from the index.
	for _, path := range []string{
		"/debug/history", "/debug/alerts", "/debug/profiles/", "/debug/contention",
		"/stats", "/debug/stats", "/debug/vars",
	} {
		if code, _ := get(path); code != 404 {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
		if strings.Contains(index, `href="`+path+`"`) {
			t.Errorf("/debug index still lists %s", path)
		}
	}
}

// TestWithObserverIsolation checks a private registry captures a context's
// traffic without polluting other registries.
func TestWithObserverIsolation(t *testing.T) {
	obs := obsv.New()
	ctx, err := pbio.NewContext(machine.Native, pbio.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, airline.FlightSchema)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := set.Lookup("ASDOffEvent")
	if _, err := f.Encode(openmeta.Record{
		"cntrID": "ZTL", "fltNum": 7, "dest": "ATL",
		"off": []uint64{1}, "eta": []uint64{2},
	}); err != nil {
		t.Fatal(err)
	}
	snap := obs.Snapshot()
	if snap["pbio.formats.registered"] <= 0 {
		t.Errorf("private observer pbio.formats.registered = %d, want > 0", snap["pbio.formats.registered"])
	}
	if snap["pbio.encode.calls"] != 1 {
		t.Errorf("private observer pbio.encode.calls = %d, want 1", snap["pbio.encode.calls"])
	}
}

func TestBrokerOptionsAndStats(t *testing.T) {
	obs := obsv.New()
	broker, err := eventbus.Listen("127.0.0.1:0",
		eventbus.WithQueueDepth(8),
		eventbus.WithObserver(obs),
		eventbus.WithPlanCache(dcg.NewCache()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	ctx, err := openmeta.New()
	if err != nil {
		t.Fatal(err)
	}
	set, err := openmeta.RegisterSchemaDocument(ctx, airline.FlightSchema)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := set.Lookup("ASDOffEvent")
	subCtx, _ := openmeta.New()
	sub, err := openmeta.DialSubscriber(broker.Addr().String(), subCtx)
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
	rec := openmeta.Record{
		"cntrID": "ZOB", "fltNum": 12, "dest": "ORD",
		"off": []uint64{9}, "eta": []uint64{10},
	}
	publishUntilReceived(t, pub, sub, f, rec)

	var st eventbus.BrokerStats
	testutil.Poll(2*time.Second, func() bool {
		st = broker.Stats()
		return st.Delivered >= 1
	})
	if st.Published < 1 || st.Delivered < 1 {
		t.Errorf("broker stats = %+v, want published/delivered >= 1", st)
	}
	if st.Streams < 1 || st.Subscribers < 1 {
		t.Errorf("broker stats = %+v, want streams/subscribers >= 1", st)
	}
	snap := obs.Snapshot()
	if snap["eventbus.delivered"] < 1 {
		t.Errorf("private broker observer eventbus.delivered = %d, want >= 1", snap["eventbus.delivered"])
	}
	if snap[`eventbus.wire.records{stream="`+airline.FlightStream+`",format="ASDOffEvent"}`] < 1 {
		t.Errorf("missing per-stream published counter: %v", snap)
	}
}

// TestNewFlightRecorderDefaultCapacity: a recorder made with capacities
// <= 0 keeps the default 2048 events and 4096 spans, as documented, not one.
func TestNewFlightRecorderDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		r := trace.New(capacity, capacity)
		r.SetSampling(1)
		for i := 0; i < 5000; i++ {
			r.Record(trace.KindDiscovery, 0, "", 0, int64(i), "")
			r.Start(trace.KindPublish).Finish("")
		}
		if got, _ := r.Events(); len(got) != 2048 {
			t.Errorf("trace.New(%d, %d) keeps %d events, want 2048", capacity, capacity, len(got))
		}
		if got, _ := r.Spans(); len(got) != 4096 {
			t.Errorf("trace.New(%d, %d) keeps %d spans, want 4096", capacity, capacity, len(got))
		}
	}
}

func TestPlanCacheOptions(t *testing.T) {
	obs := obsv.New()
	cache := dcg.NewCache(dcg.WithMaxEntries(1), dcg.WithObserver(obs))

	mk := func(arch *machine.Arch) *pbio.Format {
		ctx, err := openmeta.New(openmeta.WithArch(arch))
		if err != nil {
			t.Fatal(err)
		}
		f, err := ctx.RegisterSpec("P", []pbio.FieldSpec{
			{Name: "a", Kind: pbio.Int, CType: machine.CInt},
			{Name: "b", Kind: pbio.Float, CType: machine.CDouble},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	src, d1, d2 := mk(machine.Sparc), mk(machine.X86_64), mk(machine.X86)

	if _, err := cache.Plan(src, d1); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Plan(src, d1); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := cache.Plan(src, d2); err != nil { // miss; evicts first pair
		t.Fatal(err)
	}
	snap := obs.Snapshot()
	if snap["dcg.plan_cache.hits"] != 1 {
		t.Errorf("hits = %d, want 1", snap["dcg.plan_cache.hits"])
	}
	if snap["dcg.plan_cache.misses"] != 2 {
		t.Errorf("misses = %d, want 2", snap["dcg.plan_cache.misses"])
	}
	if snap["dcg.plan_cache.evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap["dcg.plan_cache.evictions"])
	}
	if snap["dcg.plan.compile_ns.count"] != 2 {
		t.Errorf("compile_ns.count = %d, want 2", snap["dcg.plan.compile_ns.count"])
	}
}

func TestRegistrationFamily(t *testing.T) {
	ctx, err := openmeta.New()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ctx.RegisterSpec("SpecFmt", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the computed layout through the explicit-IOField path.
	fi, err := ctx.Register("IOFmt", fs.IOFields())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := fi.Encode(openmeta.Record{"x": 41})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := fi.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if rec["x"] != int64(41) {
		t.Errorf("rec = %v", rec)
	}
}

// TestSentinelErrors checks each sentinel is reachable with errors.Is from
// the operation that produces it.
func TestSentinelErrors(t *testing.T) {
	ctx, err := openmeta.New()
	if err != nil {
		t.Fatal(err)
	}

	_, err = ctx.RegisterSpec("Bad", []pbio.FieldSpec{
		{Name: "n", Kind: pbio.Nested, NestedName: "NoSuchFormat"},
	})
	if !errors.Is(err, pbio.ErrUnknownFormat) {
		t.Errorf("nested unknown type: err = %v, want ErrUnknownFormat", err)
	}

	_, err = ctx.RegisterSpec("Dup", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
	})
	if !errors.Is(err, pbio.ErrDuplicateField) {
		t.Errorf("duplicate field: err = %v, want ErrDuplicateField", err)
	}

	f, err := ctx.RegisterSpec("One", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.Int, CType: machine.CInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Encode(openmeta.Record{"x": "nope"}); !errors.Is(err, pbio.ErrBadValue) {
		t.Errorf("bad value: err = %v, want ErrBadValue", err)
	}
	if _, err := f.Decode([]byte{1}); !errors.Is(err, pbio.ErrTruncated) {
		t.Errorf("truncated: err = %v, want ErrTruncated", err)
	}

	g, err := ctx.RegisterSpec("Other", []pbio.FieldSpec{
		{Name: "x", Kind: pbio.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dcg.Compile(f, g); !errors.Is(err, dcg.ErrIncompatible) {
		t.Errorf("incompatible formats: err = %v, want dcg.ErrIncompatible", err)
	}

	if _, err := openmeta.UnmarshalFormatMeta([]byte("garbage")); !errors.Is(err, pbio.ErrBadMeta) {
		t.Errorf("bad metadata: err = %v, want pbio.ErrBadMeta", err)
	}

	src := openmeta.StaticSchemas(map[string]string{})
	if _, err := openmeta.DiscoverAndRegister(context.Background(), src, ctx, "missing"); !errors.Is(err, discovery.ErrNotFound) {
		t.Errorf("schema not found: err = %v, want discovery.ErrNotFound", err)
	}

}
