package main

import (
	"reflect"
	"strings"

	"openmeta/internal/pbio"
)

// deepEvery is the share of deliveries compared field by field against the
// generated record: 1 in 61. Every delivery gets the seq and sum checks. The
// number is prime so that the traced run's sample of 1 record in 16 holds its
// fair share of deep comparisons, not all or none of them.
const deepEvery = 61

// fanoutShape is the fanout_mixed record; fanoutRecord is the same shape as
// a compiled-in Go type, which is what the typed Bind path needs.
var fanoutShape = shape{typeName: "FanoutMixed", ints: 10, dbls: 10, strs: 4, strN: 16, arr: 100}

type fanoutRecord struct {
	Seq                                    int64
	Sum                                    float64
	I0, I1, I2, I3, I4, I5, I6, I7, I8, I9 int32
	D0, D1, D2, D3, D4, D5, D6, D7, D8, D9 float64
	S0, S1, S2, S3                         string
	Arr                                    []float64
}

func (r *fanoutRecord) total() float64 {
	sum := float64(int64(r.I0) + int64(r.I1) + int64(r.I2) + int64(r.I3) + int64(r.I4) +
		int64(r.I5) + int64(r.I6) + int64(r.I7) + int64(r.I8) + int64(r.I9))
	sum += r.D0 + r.D1 + r.D2 + r.D3 + r.D4 + r.D5 + r.D6 + r.D7 + r.D8 + r.D9
	for _, v := range r.Arr {
		sum += v
	}
	return sum
}

// fillStruct sets the struct's fields from the generic record, matching
// names the way pbio.Bind does (field I0 is "i0").
func fillStruct(dst reflect.Value, rec pbio.Record) {
	for i := 0; i < dst.NumField(); i++ {
		v, ok := rec[strings.ToLower(dst.Type().Field(i).Name)]
		if !ok {
			continue
		}
		f := dst.Field(i)
		switch x := v.(type) {
		case int64:
			f.SetInt(x)
		case float64:
			f.SetFloat(x)
		case string:
			f.SetString(x)
		case []float64:
			f.Set(reflect.ValueOf(append([]float64(nil), x...)))
		}
	}
}

// checker verifies the deliveries of one subscriber. It owns its copy of
// the generated ring, so nothing is shared with the publishing goroutine.
type checker struct {
	scoped  bool
	nextSeq int64
	want    []pbio.Record  // generic and scoped
	typed   []fanoutRecord // typed plain subscriber
}

func newChecker(spec busSpec, kind subKind, seed int64) checker {
	c := checker{scoped: kind == subScoped, want: spec.shape.ring(seed)}
	switch {
	case c.scoped:
		// The scoped subscriber must see the projected fields and no others.
		for i, full := range c.want {
			proj := make(pbio.Record, len(scopedFields))
			for _, name := range scopedFields {
				proj[name] = full[name]
			}
			c.want[i] = proj
		}
	case spec.typed && kind == subPlain:
		c.typed = typedRing(c.want)
	}
	return c
}

// inOrder checks seq continuity: every subscriber sees 0, 1, 2, ...
func (c *checker) inOrder(seq int64) bool {
	ok := seq == c.nextSeq
	c.nextSeq = seq + 1
	return ok
}

// check verifies a decoded generic record and returns its seq.
func (c *checker) check(rec pbio.Record) (int64, bool) {
	seq, ok := rec["seq"].(int64)
	if !ok || seq < 0 {
		return 0, false
	}
	ok = c.inOrder(seq)
	want := c.want[seq%ringSize]
	if c.scoped {
		// Three fields: compare them all on every delivery.
		return seq, ok && len(rec) == len(want) && rec["d0"] == want["d0"] && rec["d1"] == want["d1"]
	}
	if sum, isFloat := rec["sum"].(float64); !isFloat || sum != c.total(rec) || sum != want["sum"] {
		ok = false
	}
	if seq%deepEvery == 0 {
		want["seq"] = seq
		ok = ok && reflect.DeepEqual(rec, want)
	}
	return seq, ok
}

// total recomputes sum from the decoded numbers.
func (c *checker) total(rec pbio.Record) float64 {
	var sum float64
	for k, v := range rec {
		switch x := v.(type) {
		case int64:
			if k[0] == 'i' {
				sum += float64(x)
			}
		case float64:
			if k[0] == 'd' {
				sum += x
			}
		case []float64:
			for _, e := range x {
				sum += e
			}
		}
	}
	return sum
}

// checkTyped verifies a record decoded into the compiled-in struct.
func (c *checker) checkTyped(rec *fanoutRecord) bool {
	if rec.Seq < 0 {
		return false
	}
	ok := c.inOrder(rec.Seq)
	want := &c.typed[rec.Seq%ringSize]
	if rec.Sum != rec.total() || rec.Sum != want.Sum {
		ok = false
	}
	if rec.Seq%deepEvery == 0 {
		want.Seq = rec.Seq
		ok = ok && reflect.DeepEqual(rec, want)
	}
	return ok
}
