package eventbus

import (
	"strings"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

func TestScopedSubscription(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)

	// One scoped subscriber (sees only cntrID + eta) and one full.
	scoped, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer scoped.Close()
	if err := scoped.SubscribeFields("flights", "cntrID", "eta"); err != nil {
		t.Fatal(err)
	}
	full, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if err := full.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "flights", 2)

	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	rec := pbio.Record{"cntrID": "ZTL", "fltNum": 1842, "eta": []uint64{9, 8}}
	if err := pub.PublishRecord("flights", f, rec); err != nil {
		t.Fatal(err)
	}

	// Scoped subscriber: the hidden field is absent from both the record
	// and the delivered format.
	ev, err := scoped.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ev.Format.Name, "ASDOffEvent#") {
		t.Errorf("scoped format name = %q", ev.Format.Name)
	}
	if _, ok := ev.Format.FieldByName("fltNum"); ok {
		t.Error("hidden field present in scoped format")
	}
	out, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if out["cntrID"] != "ZTL" {
		t.Errorf("cntrID = %v", out["cntrID"])
	}
	if _, present := out["fltNum"]; present {
		t.Error("hidden field value leaked to scoped subscriber")
	}
	if got := out["eta"].([]uint64); len(got) != 2 || got[0] != 9 {
		t.Errorf("eta = %v", out["eta"])
	}
	// The scoped record really is smaller on the wire.
	fullData, _ := f.Encode(rec)
	if len(ev.Data) >= len(fullData) {
		t.Errorf("scoped record %dB, full %dB", len(ev.Data), len(fullData))
	}

	// Full subscriber still sees everything.
	ev2, err := full.Next()
	if err != nil {
		t.Fatal(err)
	}
	out2, err := ev2.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if out2["fltNum"] != int64(1842) {
		t.Errorf("full subscriber fltNum = %v", out2["fltNum"])
	}
}

func TestScopedSubscriptionBadField(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.X86_64)
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.SubscribeFields("flights", "noSuchField"); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "flights", 1)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.PublishRecord("flights", f, pbio.Record{"fltNum": 1}); err != nil {
		t.Fatal(err)
	}
	// The unsatisfiable scope surfaces as a broker error to the subscriber.
	if _, err := sub.Next(); err == nil {
		t.Error("scope referencing a missing field did not error")
	}
}

func TestSubscribeFieldsEmptyFallsBack(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.X86_64)
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.SubscribeFields("flights"); err != nil { // no fields = full
		t.Fatal(err)
	}
	waitForStream(t, b, "flights", 1)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.PublishRecord("flights", f, pbio.Record{"fltNum": 3}); err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Format.Name != "ASDOffEvent" {
		t.Errorf("format = %q, want full format", ev.Format.Name)
	}
}

func TestScopedLateSubscriberGetsScopedFormat(t *testing.T) {
	b := newBroker(t)
	f := flightFormat(t, machine.Sparc)
	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.PublishRecord("flights", f, pbio.Record{"cntrID": "Z"}); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "flights", 0)

	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.SubscribeFields("flights", "cntrID"); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "flights", 1)
	if err := pub.PublishRecord("flights", f, pbio.Record{"cntrID": "ZNY"}); err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if rec["cntrID"] != "ZNY" {
		t.Errorf("cntrID = %v", rec["cntrID"])
	}
	// The scoped format was adopted at subscription time already.
	if len(ev.Format.Fields) != 1 {
		t.Errorf("scoped format fields = %d", len(ev.Format.Fields))
	}
}

func TestScopeLimit(t *testing.T) {
	b := newBroker(t)
	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	many := make([]string, 300)
	for i := range many {
		many[i] = "f"
	}
	if err := sub.SubscribeFields("s", many...); err == nil {
		t.Error("oversized scope accepted")
	}
}

// TestScopedSubscriptionKeepsNestedString scopes a subscription to a nested
// field whose record holds a string: the broker's projection must carry the
// string's bytes, not just the slot that points at them, so the subscriber
// gets a record it can decode with the value the publisher wrote.
func TestScopedSubscriptionKeepsNestedString(t *testing.T) {
	b := newBroker(t)
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterSpec("Inner", []pbio.FieldSpec{
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "s", Kind: pbio.String},
	}); err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec("V", []pbio.FieldSpec{
		{Name: "a", Kind: pbio.Int, CType: machine.CInt},
		{Name: "secret", Kind: pbio.String},
		{Name: "in", Kind: pbio.Nested, NestedName: "Inner"},
	})
	if err != nil {
		t.Fatal(err)
	}

	sub, err := DialSubscriber(b.Addr().String(), subCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.SubscribeFields("nested", "in"); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, "nested", 1)

	pub, err := DialPublisher(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	rec := pbio.Record{"a": 7, "secret": "hidden", "in": pbio.Record{"n": 3, "s": "hello world"}}
	if err := pub.PublishRecord("nested", f, rec); err != nil {
		t.Fatal(err)
	}

	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ev.Decode()
	if err != nil {
		t.Fatalf("scoped record does not decode: %v", err)
	}
	if in, _ := out["in"].(pbio.Record); in["s"] != "hello world" || in["n"] != int64(3) {
		t.Errorf("in = %v, want n=3 s=%q", out["in"], "hello world")
	}
	if _, present := out["secret"]; present || strings.Contains(string(ev.Data), "hidden") {
		t.Error("a field outside the scope reached the scoped subscriber")
	}
}
