package xdr

import (
	"bytes"
	"reflect"
	"testing"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// FuzzDecodeXDRRecord throws arbitrary bytes at the XDR decoder, which parses
// what peers send (Table 2's XDR decode), under the all-kinds format, the
// nested-array Path format and four generated ones. It must never panic; a
// record it accepts must match its heap-boxed copy (its values sit in the
// record builder's block), and re-encode and decode back to itself, with the
// same bytes both times.
func FuzzDecodeXDRRecord(f *testing.F) {
	formats := []*pbio.Format{allKindsFormat(f), pathFormat(f)}
	values := []pbio.Record{allKindsRecord(), {"pts": []pbio.Record{{"x": 1.5, "tag": "a"}}}}
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
			data, err := EncodeRecord(fm, rec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), data)
		}
	}
	f.Add(uint8(1), nestedCountInput)
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		fm := formats[int(which)%len(formats)]
		rec, err := DecodeRecord(fm, data)
		if err != nil {
			return
		}
		testutil.CheckReboxed(t, fm.Name, rec)
		enc, err := EncodeRecord(fm, rec)
		if err != nil {
			t.Fatalf("accepted record does not encode: %v\ninput: %x", err, data)
		}
		back, err := DecodeRecord(fm, enc)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\ninput: %x\nenc:   %x", err, data, enc)
		}
		again, err := EncodeRecord(fm, back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("bytes changed in a round trip (err %v)\n first %x\nsecond %x", err, enc, again)
		}
		if !reflect.DeepEqual(back, rec) && !hasNaN(rec) {
			t.Fatalf("record changed in a round trip\n got %#v\nwant %#v", back, rec)
		}
	})
}

// hasNaN reports whether a decoded record holds a NaN, the one value
// reflect.DeepEqual finds unequal to itself.
func hasNaN(v interface{}) bool {
	switch v := v.(type) {
	case float64:
		return v != v
	case []float64:
		for _, x := range v {
			if x != x {
				return true
			}
		}
	case pbio.Record:
		for _, x := range v {
			if hasNaN(x) {
				return true
			}
		}
	case []pbio.Record:
		for _, x := range v {
			if hasNaN(x) {
				return true
			}
		}
	}
	return false
}
