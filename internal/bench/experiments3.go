package bench

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"openmeta/internal/core"
	"openmeta/internal/eventbus"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlwire"
)

// --- Table 8: event backbone fan-out ----------------------------------------

// Table8 measures the scalability claim of the paper's introduction:
// "scalability to many information clients and sources implies the need to
// reduce per-client or per-source processing and transmission requirements
// ... single servers must provide information to large numbers of clients."
// One publisher pushes records through the broker to N subscribers; NDR
// relay (the broker never decodes) is compared against an XML-text relay
// simulated by encoding text once per delivery.
func Table8(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Table 8",
		Caption: fmt.Sprintf("Broker fan-out: delivery cost per record per subscriber (%d records)", cfg.Messages),
		Headers: []string{"Subscribers", "NDR relay/rec/sub", "NDR total/rec", "XML-text equiv/rec/sub"},
		Notes: []string{
			"NDR relay: the broker forwards bytes without decoding; cost grows only with copies",
			"XML-text equiv: CPU a text backbone would spend re-serializing per delivery (same records)",
		},
	}
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		return nil, err
	}
	works, err := SizeSweep(ctx, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := works[1] // mixed1KB
	record, err := w.Format.Encode(w.Record)
	if err != nil {
		return nil, err
	}
	// Cost an XML backbone would pay per delivery: one text encode.
	xmlPer, err := TimeOp(cfg.Trials, cfg.Inner, func() error {
		_, err := xmlwire.EncodeRecord(w.Format, w.Record)
		return err
	})
	if err != nil {
		return nil, err
	}

	for _, nSubs := range []int{1, 2, 4, 8} {
		perRec, err := fanout(w.Format, record, nSubs, cfg.Messages)
		if err != nil {
			return nil, fmt.Errorf("table8 n=%d: %w", nSubs, err)
		}
		perSub := perRec / time.Duration(nSubs)
		t.AddRow(nSubs, perSub, perRec, xmlPer)
	}
	return t, nil
}

// fanout runs one publisher and nSubs draining subscribers through a real
// broker over loopback TCP, returning the wall time per published record.
func fanout(f *pbio.Format, record []byte, nSubs, msgs int) (time.Duration, error) {
	broker, err := eventbus.Listen("127.0.0.1:0", eventbus.WithSlog(slog.New(slog.NewTextHandler(io.Discard, nil))))
	if err != nil {
		return 0, err
	}
	defer broker.Close()

	var wg sync.WaitGroup
	errs := make(chan error, nSubs+1)
	for i := 0; i < nSubs; i++ {
		rctx, err := pbio.NewContext(machine.Native)
		if err != nil {
			return 0, err
		}
		sub, err := eventbus.DialSubscriber(broker.Addr().String(), rctx)
		if err != nil {
			return 0, err
		}
		defer sub.Close()
		if err := sub.Subscribe("bench"); err != nil {
			return 0, err
		}
		wg.Add(1)
		go func(sub *eventbus.Subscriber) {
			defer wg.Done()
			for n := 0; n < msgs; n++ {
				if _, err := sub.Next(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(sub)
	}
	// Wait for the subscriptions to land before timing.
	deadline := time.Now().Add(5 * time.Second)
	for len(broker.Streams()) == 0 || !brokerHasSubs(broker, "bench", nSubs) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("subscriptions did not register")
		}
		time.Sleep(time.Millisecond)
	}

	pub, err := eventbus.DialPublisher(broker.Addr().String())
	if err != nil {
		return 0, err
	}
	defer pub.Close()
	start := time.Now()
	for n := 0; n < msgs; n++ {
		if err := pub.Publish("bench", f, record); err != nil {
			return 0, err
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed / time.Duration(msgs), nil
}

// brokerHasSubs reports whether the named stream has at least n subscribers.
func brokerHasSubs(b *eventbus.Broker, name string, n int) bool {
	return b.SubscriberCount(name) >= n
}

// --- Table 9: xml2wire registration scaling ---------------------------------

// Table9 extends Table 1's observation — "the time required to parse
// metadata grows proportionally to the structure size" — with a direct
// scaling sweep over field count, separating the XML-parse and PBIO-register
// components.
func Table9(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "Table 9",
		Caption: "Registration cost vs field count (xml2wire decomposed)",
		Headers: []string{"Fields", "Schema bytes", "Parse+register", "Register only", "Parse share", "Allocs parse+register / register"},
		Notes: []string{
			"expected shape: both components linear in field count; parsing dominates xml2wire",
		},
	}
	for _, nFields := range []int{4, 8, 16, 32, 64, 128} {
		doc := syntheticSchema(nFields)
		specs, err := syntheticSpecs(nFields)
		if err != nil {
			return nil, err
		}
		viaXML := func() error {
			ctx, err := pbio.NewContext(machine.Sparc)
			if err != nil {
				return err
			}
			_, err = core.RegisterDocument(ctx, doc)
			return err
		}
		fromSpecs := func() error {
			ctx, err := pbio.NewContext(machine.Sparc)
			if err != nil {
				return err
			}
			_, err = ctx.RegisterSpec("S", specs)
			return err
		}
		full, err := TimeOp(cfg.Trials, cfg.Inner, viaXML)
		if err != nil {
			return nil, err
		}
		regOnly, err := TimeOp(cfg.Trials, cfg.Inner, fromSpecs)
		if err != nil {
			return nil, err
		}
		aFull, err := AllocsOp(viaXML)
		if err != nil {
			return nil, err
		}
		aReg, err := AllocsOp(fromSpecs)
		if err != nil {
			return nil, err
		}
		share := 100 * float64(full-regOnly) / float64(full)
		t.AddRow(nFields, len(doc), full, regOnly, fmt.Sprintf("%.0f%%", share), fmt.Sprintf("%d / %d", aFull, aReg))
	}
	return t, nil
}

// SyntheticSchema builds a schema document with nFields elements of mixed
// primitive types; exposed for the root benchmarks.
func SyntheticSchema(nFields int) []byte { return syntheticSchema(nFields) }

func syntheticSchema(nFields int) []byte {
	doc := `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="S">`
	for i := 0; i < nFields; i++ {
		switch i % 3 {
		case 0:
			doc += fmt.Sprintf("\n    <xsd:element name=\"f%d\" type=\"xsd:integer\" />", i)
		case 1:
			doc += fmt.Sprintf("\n    <xsd:element name=\"f%d\" type=\"xsd:double\" />", i)
		default:
			doc += fmt.Sprintf("\n    <xsd:element name=\"f%d\" type=\"xsd:string\" />", i)
		}
	}
	doc += "\n  </xsd:complexType>\n</xsd:schema>"
	return []byte(doc)
}

func syntheticSpecs(nFields int) ([]pbio.FieldSpec, error) {
	specs := make([]pbio.FieldSpec, nFields)
	for i := range specs {
		name := fmt.Sprintf("f%d", i)
		switch i % 3 {
		case 0:
			specs[i] = pbio.FieldSpec{Name: name, Kind: pbio.Int, CType: machine.CInt}
		case 1:
			specs[i] = pbio.FieldSpec{Name: name, Kind: pbio.Float, CType: machine.CDouble}
		default:
			specs[i] = pbio.FieldSpec{Name: name, Kind: pbio.String}
		}
	}
	return specs, nil
}
