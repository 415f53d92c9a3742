package xmlwire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// FuzzDecodeXMLRecord throws arbitrary text at the XML-text decoder, which
// parses what peers send (omsub, ompub, Table 4's XML-text
// ping-pong), under the all-kinds format and four generated ones. It must
// never panic; a record it accepts must match its heap-boxed copy (its values
// sit in the record builder's block, or on the heap past its end), and
// re-encode and decode back to itself, with the same text both times.
func FuzzDecodeXMLRecord(f *testing.F) {
	formats := []*pbio.Format{allKindsFormat(f)}
	values := []pbio.Record{{"s": "a<&>b", "p": pbio.Record{"x": 1.5}, "bools": []bool{true}}}
	for seed := int64(1); seed <= 4; seed++ {
		ctx, err := pbio.NewContext(machine.X86_64)
		if err != nil {
			f.Fatal(err)
		}
		schema := testutil.NewGenSchema(seed)
		root, err := schema.Register(ctx)
		if err != nil {
			f.Fatal(err)
		}
		formats = append(formats, root)
		values = append(values, schema.Value(0))
	}
	for i, fm := range formats {
		for _, rec := range []pbio.Record{values[i], {}} {
			text, err := EncodeRecord(fm, rec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), text)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, doc []byte) {
		fm := formats[int(which)%len(formats)]
		rec, err := DecodeRecord(fm, doc)
		if err != nil {
			return
		}
		testutil.CheckReboxed(t, fm.Name, rec)
		text, err := EncodeRecord(fm, rec)
		if err != nil {
			t.Fatalf("accepted record does not encode: %v\ninput: %q", err, doc)
		}
		back, err := DecodeRecord(fm, text)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\ninput: %q\ntext:  %q", err, doc, text)
		}
		again, err := EncodeRecord(fm, back)
		if err != nil || !bytes.Equal(again, text) {
			t.Fatalf("text changed in a round trip (err %v)\n first %q\nsecond %q", err, text, again)
		}
		// NaN, which a float field accepts, is the one value unequal to itself.
		if !reflect.DeepEqual(back, rec) && !strings.Contains(string(text), "NaN") {
			t.Fatalf("record changed in a round trip\n got %#v\nwant %#v", back, rec)
		}
	})
}
