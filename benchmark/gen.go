package main

import (
	"fmt"
	"strings"

	"openmeta/internal/pbio"
)

// Every input of the benchmark is made here, from the seed alone: schema
// documents as XML text and records in the form pbio decodes them to (int64,
// uint64, float64, bool, string, typed slices, nested Records). No repo
// generator is used, so a later change to internal/gen or internal/loadgen
// cannot change what the benchmark feeds the system.
//
// The seed changes names, declaration order and values. It never changes a
// count, a length or a size, so the cost of a workload does not depend on the
// seed and runs with different seeds can be compared.

// rng is splitmix64: a dozen lines, the same sequence on every Go version.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	r := &rng{s: uint64(seed)}
	for _, c := range []byte(stream) {
		r.s = r.s*1099511628211 + uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// signed returns a value in [-2^(bits-1), 2^(bits-1)).
func (r *rng) signed(bits uint) int64 {
	return int64(r.next()%(1<<bits)) - int64(1)<<(bits-1)
}

// eighth returns a multiple of 1/8 of magnitude below 2^17. Sums of
// thousands of these are exact in float64 in any order, and each one
// survives a float32 round trip.
func (r *rng) eighth() float64 { return float64(r.signed(20)) / 8 }

const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"

func (r *rng) text(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[r.intn(len(alnum))]
	}
	return string(b)
}

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ringSize is the number of distinct records a bus workload cycles through.
const ringSize = 256

// shape is the record format of one bus workload.
type shape struct {
	typeName               string
	ints, dbls, strs, strN int
	arr                    int // elements of the dynamic double array; 0 for none
}

func schemaHeader(b *strings.Builder, doc string) {
	b.WriteString(`<?xml version="1.0"?>` + "\n")
	b.WriteString(`<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema"` + "\n")
	b.WriteString(`    targetNamespace="urn:openmeta:benchmark">` + "\n")
	fmt.Fprintf(b, "  <xsd:annotation><xsd:documentation>%s</xsd:documentation></xsd:annotation>\n", doc)
}

func element(b *strings.Builder, name, typ, occurs string) {
	fmt.Fprintf(b, `    <xsd:element name="%s" type="%s"%s />`+"\n", name, typ, occurs)
}

// schemaDoc writes the shape as an XML Schema document. Fields are grouped
// by size (8-byte scalars, pointers, then 4-byte ints) so that the seeded
// order inside a group moves no padding: the NDR size is the same for every
// seed.
func (s shape) schemaDoc(seed int64) string {
	r := newRNG(seed, "schema/"+s.typeName)
	var b strings.Builder
	schemaHeader(&b, fmt.Sprintf("%s seed %d", s.typeName, seed))
	fmt.Fprintf(&b, "  <xsd:complexType name=\"%s\">\n", s.typeName)
	element(&b, "seq", "xsd:long", "")
	element(&b, "sum", "xsd:double", "")
	for _, i := range r.perm(s.dbls) {
		element(&b, fmt.Sprintf("d%d", i), "xsd:double", "")
	}
	for _, i := range r.perm(s.strs) {
		element(&b, fmt.Sprintf("s%d", i), "xsd:string", "")
	}
	if s.arr > 0 {
		element(&b, "arr", "xsd:double", ` minOccurs="0" maxOccurs="*"`)
	}
	for _, i := range r.perm(s.ints) {
		element(&b, fmt.Sprintf("i%d", i), "xsd:int", "")
	}
	b.WriteString("  </xsd:complexType>\n</xsd:schema>\n")
	return b.String()
}

// record makes ring entry i. sum covers every int, double and array element,
// so one comparison at the receiver catches a damaged number anywhere.
func (s shape) record(r *rng, i int) pbio.Record {
	rec := make(pbio.Record, s.ints+s.dbls+s.strs+4)
	var sum float64
	for k := 0; k < s.ints; k++ {
		v := r.signed(20)
		rec[fmt.Sprintf("i%d", k)] = v
		sum += float64(v)
	}
	for k := 0; k < s.dbls; k++ {
		v := r.eighth()
		rec[fmt.Sprintf("d%d", k)] = v
		sum += v
	}
	for k := 0; k < s.strs; k++ {
		rec[fmt.Sprintf("s%d", k)] = r.text(s.strN)
	}
	if s.arr > 0 {
		arr := make([]float64, s.arr)
		for k := range arr {
			arr[k] = r.eighth()
			sum += arr[k]
		}
		rec["arr"] = arr
		rec["arr_count"] = int64(s.arr)
	}
	rec["seq"] = int64(i)
	rec["sum"] = sum
	return rec
}

// ring builds the workload's distinct records. Calling it twice gives two
// independent copies, so the publisher and each verifier own theirs.
func (s shape) ring(seed int64) []pbio.Record {
	r := newRNG(seed, "ring/"+s.typeName)
	out := make([]pbio.Record, ringSize)
	for i := range out {
		out[i] = s.record(r, i)
	}
	return out
}

// ---- cold_bind pool -------------------------------------------------------

// poolSize is the number of schema documents cold_bind cycles through, and
// sessionRecords the records each session writes and reads.
const (
	poolSize       = 64
	sessionRecords = 8
)

// coldKinds is the cycle of field kinds a pool document draws from. Document
// i takes the first 4 + 44*i/63 entries of the repeated cycle, so small
// documents are plain scalars and large ones carry every construct xml2wire
// maps: static and dynamic arrays, a nested type, an array of nested types.
var coldKinds = []string{
	"int", "double", "string", "long", "float", "short", "boolean",
	"unsignedInt", "int[4]", "double*", "nested", "unsignedByte",
	"double[3]", "int*", "byte", "nested*",
}

// dynLen is the length of every dynamic array in the pool.
const dynLen = 6

// poolDoc is one cold_bind input: a schema document and the records of one
// session, in decoded form.
type poolDoc struct {
	root    string
	doc     []byte
	records []pbio.Record
}

func coldFieldCount(i int) int { return 4 + 44*i/(poolSize-1) }

// pool builds the cold_bind documents and their records.
func pool(seed int64) []poolDoc {
	out := make([]poolDoc, poolSize)
	for i := range out {
		r := newRNG(seed, fmt.Sprintf("pool/%d", i))
		n := coldFieldCount(i)
		names := make([]string, n)
		kinds := make([]string, n)
		for k := range names {
			names[k] = fmt.Sprintf("f%02d%s", k, r.text(4))
			kinds[k] = coldKinds[k%len(coldKinds)]
		}
		inner := fmt.Sprintf("Inner%02d", i)
		root := fmt.Sprintf("Doc%02d", i)

		var b strings.Builder
		schemaHeader(&b, fmt.Sprintf("cold_bind %d seed %d", i, seed))
		fmt.Fprintf(&b, "  <xsd:complexType name=\"%s\">\n", inner)
		element(&b, "a", "xsd:int", "")
		element(&b, "b", "xsd:double", "")
		element(&b, "c", "xsd:string", "")
		b.WriteString("  </xsd:complexType>\n")
		fmt.Fprintf(&b, "  <xsd:complexType name=\"%s\">\n", root)
		for k, kind := range kinds {
			typ, occurs := "xsd:"+strings.TrimRight(kind, "*[]0123456789"), ""
			if strings.HasPrefix(kind, "nested") {
				typ = inner
			}
			switch {
			case strings.HasSuffix(kind, "*"):
				occurs = ` minOccurs="0" maxOccurs="*"`
			case strings.HasSuffix(kind, "]"):
				c := kind[strings.IndexByte(kind, '[')+1 : len(kind)-1]
				occurs = fmt.Sprintf(` minOccurs="%s" maxOccurs="%s"`, c, c)
			}
			element(&b, names[k], typ, occurs)
		}
		b.WriteString("  </xsd:complexType>\n</xsd:schema>\n")

		d := poolDoc{root: root, doc: []byte(b.String())}
		for j := 0; j < sessionRecords; j++ {
			rec := make(pbio.Record, n+4)
			for k, kind := range kinds {
				rec[names[k]] = coldValue(r, kind)
				if strings.HasSuffix(kind, "*") {
					rec[names[k]+"_count"] = int64(dynLen)
				}
			}
			d.records = append(d.records, rec)
		}
		out[i] = d
	}
	return out
}

func innerValue(r *rng) pbio.Record {
	return pbio.Record{"a": r.signed(31), "b": r.eighth(), "c": r.text(6)}
}

// coldValue makes a value of the kind, in the Go type pbio decodes it to.
func coldValue(r *rng, kind string) interface{} {
	switch kind {
	case "int":
		return r.signed(31)
	case "long":
		return r.signed(62)
	case "short":
		return r.signed(15)
	case "byte":
		return r.signed(7)
	case "unsignedInt":
		return r.next() % (1 << 32)
	case "unsignedByte":
		return r.next() % (1 << 8)
	case "double", "float":
		return r.eighth()
	case "boolean":
		return r.intn(2) == 1
	case "string":
		return r.text(12)
	case "nested":
		return innerValue(r)
	case "int[4]":
		return []int64{r.signed(31), r.signed(31), r.signed(31), r.signed(31)}
	case "double[3]":
		return []float64{r.eighth(), r.eighth(), r.eighth()}
	case "double*":
		v := make([]float64, dynLen)
		for i := range v {
			v[i] = r.eighth()
		}
		return v
	case "int*":
		v := make([]int64, dynLen)
		for i := range v {
			v[i] = r.signed(31)
		}
		return v
	case "nested*":
		v := make([]pbio.Record, dynLen)
		for i := range v {
			v[i] = innerValue(r)
		}
		return v
	}
	panic("benchmark: unknown pool kind " + kind)
}
