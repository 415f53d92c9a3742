package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"openmeta/internal/core"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// inputs renders everything the generator makes for a seed: schema documents
// as they are, records as JSON (keys sorted, so the text is canonical).
func inputs(t *testing.T, seed int64) (docs, records []byte) {
	t.Helper()
	var d, r bytes.Buffer
	for _, w := range workloads {
		spec, ok := busSpecs[w.Name]
		if !ok {
			continue
		}
		d.WriteString(spec.shape.schemaDoc(seed))
		if err := json.NewEncoder(&r).Encode(spec.shape.ring(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pool(seed) {
		d.Write(p.doc)
		if err := json.NewEncoder(&r).Encode(p.records); err != nil {
			t.Fatal(err)
		}
	}
	return d.Bytes(), r.Bytes()
}

// images encodes every generated record through xml2wire and pbio.
func images(t *testing.T, seed int64) []byte {
	t.Helper()
	var out bytes.Buffer
	encode := func(doc []byte, recs []pbio.Record) {
		ctx, err := pbio.NewContext(machine.X86_64)
		if err != nil {
			t.Fatal(err)
		}
		set, err := core.RegisterDocument(ctx, doc)
		if err != nil {
			t.Fatalf("register: %v\n%s", err, doc)
		}
		for _, rec := range recs {
			data, err := set.Root().Encode(rec)
			if err != nil {
				t.Fatalf("encode %s: %v", set.Root().Name, err)
			}
			out.Write(data)
		}
	}
	for _, w := range workloads {
		if spec, ok := busSpecs[w.Name]; ok {
			encode([]byte(spec.shape.schemaDoc(seed)), spec.shape.ring(seed))
		}
	}
	for _, p := range pool(seed) {
		encode(p.doc, p.records)
	}
	return out.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	d1, r1 := inputs(t, 7)
	d2, r2 := inputs(t, 7)
	if !bytes.Equal(d1, d2) || !bytes.Equal(r1, r2) {
		t.Fatal("two generations from one seed differ")
	}
	if !bytes.Equal(images(t, 7), images(t, 7)) {
		t.Fatal("NDR images from one seed differ")
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	d1, r1 := inputs(t, 7)
	d2, r2 := inputs(t, 8)
	if bytes.Equal(d1, d2) {
		t.Error("schema documents do not depend on the seed")
	}
	if bytes.Equal(r1, r2) {
		t.Error("records do not depend on the seed")
	}
	i1, i2 := images(t, 7), images(t, 8)
	if bytes.Equal(i1, i2) {
		t.Error("NDR images do not depend on the seed")
	}
	// The seed must not change how much work a workload is.
	if len(i1) != len(i2) || len(d1) != len(d2) {
		t.Errorf("sizes depend on the seed: documents %d vs %d bytes, images %d vs %d bytes", len(d1), len(d2), len(i1), len(i2))
	}
}

// The golden values pin the generator itself (documents and record values,
// which no repository code touches), so an accidental change to gen.go shows
// up as a changed benchmark input and not as a changed benchmark number.
func TestGoldenInputs(t *testing.T) {
	const wantDocs, wantRecords = "f524e004220f750038b45e55e150732e08daad3780bed0b3c6e3838eaf226865", "51ded69600c9205c2f502bfc8b4a9ab0cda7659f1bec9602dd5df1676816693b"
	d, r := inputs(t, 1)
	if got := fmt.Sprintf("%x", sha256.Sum256(d)); got != wantDocs {
		t.Errorf("schema documents for seed 1 hash to %s, want %s", got, wantDocs)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(r)); got != wantRecords {
		t.Errorf("records for seed 1 hash to %s, want %s", got, wantRecords)
	}
}

func TestPoolCoversEveryConstruct(t *testing.T) {
	p := pool(1)
	if n := coldFieldCount(0); n != 4 {
		t.Errorf("smallest document has %d fields, want 4", n)
	}
	if n := coldFieldCount(poolSize - 1); n != 48 {
		t.Errorf("largest document has %d fields, want 48", n)
	}
	last := string(p[poolSize-1].doc)
	for _, want := range []string{`maxOccurs="*"`, `maxOccurs="4"`, `type="Inner63"`, "xsd:unsignedByte"} {
		if !bytes.Contains([]byte(last), []byte(want)) {
			t.Errorf("largest document lacks %s", want)
		}
	}
}
