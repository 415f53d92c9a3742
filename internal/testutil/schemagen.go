package testutil

import (
	"fmt"
	"reflect"

	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// This file generates message formats, values for them and Go struct types
// to bind them to, from a seed alone, for the differential codec tests: the
// same value must come out of NDR (with or without a dcg conversion between
// any two architectures), XDR and XML text. Every construct the codecs
// support is drawn: all kinds, static and dynamic arrays, nested records and
// arrays of them, empty strings and empty arrays, count fields shared by two
// arrays.
//
// The generator is splitmix64, the pattern of benchmark/gen.go: a dozen
// lines, the same sequence on every Go version.

type genRNG struct{ s uint64 }

func newGenRNG(seed int64, stream string) *genRNG {
	r := &genRNG{s: uint64(seed)}
	for _, c := range []byte(stream) {
		r.s = r.s*1099511628211 + uint64(c)
	}
	r.next()
	return r
}

func (r *genRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *genRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// GenFormat is one generated format: a name and the specs to register it by.
type GenFormat struct {
	Name   string
	Fields []pbio.FieldSpec
}

// GenSchema is a generated family of formats in registration order: nested
// formats first, the root last.
type GenSchema struct {
	Seed    int64
	Formats []GenFormat
}

// scalar is one drawable scalar type. bits is the width every value of it is
// kept within, which is its narrowest representation on any architecture
// (int is 2 bytes on legacy16), so a value survives every conversion.
type scalar struct {
	kind  pbio.Kind
	ctype machine.CType
	bits  uint
}

var scalars = []scalar{
	{pbio.Int, machine.CChar, 8}, {pbio.Int, machine.CShort, 16}, {pbio.Int, machine.CInt, 16},
	{pbio.Int, machine.CLong, 32}, {pbio.Int, machine.CLongLong, 64},
	{pbio.Uint, machine.CUChar, 8}, {pbio.Uint, machine.CUShort, 16}, {pbio.Uint, machine.CUInt, 16},
	{pbio.Uint, machine.CULong, 32}, {pbio.Uint, machine.CULongLong, 64},
	{pbio.Float, machine.CFloat, 32}, {pbio.Float, machine.CDouble, 64},
	{pbio.Char, machine.CChar, 8}, {pbio.Bool, machine.CChar, 1},
	{pbio.String, 0, 0},
}

func scalarOf(s pbio.FieldSpec) scalar {
	for _, sc := range scalars {
		if sc.kind == s.Kind && sc.ctype == s.CType {
			return sc
		}
	}
	return scalar{kind: s.Kind}
}

// NewGenSchema draws a schema: two nested formats (the second nesting the
// first) and a root that uses both.
func NewGenSchema(seed int64) GenSchema {
	r := newGenRNG(seed, "schema")
	s := GenSchema{Seed: seed}
	for level, name := range []string{"Leaf", "Mid", "Root"} {
		s.Formats = append(s.Formats, GenFormat{Name: fmt.Sprintf("%s%d", name, seed), Fields: s.fields(r, level)})
	}
	return s
}

// fields draws the field list of one format. Formats below level are
// available for nesting.
func (s *GenSchema) fields(r *genRNG, level int) []pbio.FieldSpec {
	var out []pbio.FieldSpec
	name := func() string { return fmt.Sprintf("f%d", len(out)) }
	for n := 3 + r.intn(6); n > 0; n-- {
		fs := pbio.FieldSpec{Name: name()}
		if level > 0 && r.intn(3) == 0 {
			fs.Kind, fs.NestedName = pbio.Nested, s.Formats[r.intn(level)].Name
		} else {
			sc := scalars[r.intn(len(scalars))]
			fs.Kind, fs.CType = sc.kind, sc.ctype
		}
		switch shape := r.intn(4); {
		case shape == 0:
			fs.Count = 2 + r.intn(3)
		case shape == 1 && fs.Kind != pbio.String: // no dynamic arrays of strings
			fs.Dynamic, fs.CountField = true, fs.Name+"_n"
			count := pbio.FieldSpec{Name: fs.CountField, Kind: pbio.Int, CType: machine.CInt}
			if r.intn(2) == 0 {
				out = append(out, fs, count) // count field after its array
			} else {
				out = append(out, count, fs)
			}
			if r.intn(3) == 0 { // a second array sharing the count field
				sc := scalars[r.intn(len(scalars)-1)] // not a string
				out = append(out, pbio.FieldSpec{Name: name(), Kind: sc.kind, CType: sc.ctype,
					Dynamic: true, CountField: fs.CountField})
			}
			continue
		}
		out = append(out, fs)
	}
	return out
}

// Register registers the schema's formats with ctx and returns the root.
func (s GenSchema) Register(ctx *pbio.Context) (*pbio.Format, error) {
	var root *pbio.Format
	for _, gf := range s.Formats {
		f, err := ctx.RegisterSpec(gf.Name, gf.Fields)
		if err != nil {
			return nil, fmt.Errorf("schema %d: %w", s.Seed, err)
		}
		root = f
	}
	return root, nil
}

func (s GenSchema) format(name string) GenFormat {
	for _, gf := range s.Formats {
		if gf.Name == name {
			return gf
		}
	}
	panic("testutil: no generated format " + name)
}

// Value draws a record of the root format in the form pbio decodes to —
// int64, uint64, float64, bool, string, typed slices, Record, []Record, count
// fields filled in — so a decoded record can be reflect.DeepEqual'ed to it.
func (s GenSchema) Value(seed int64) pbio.Record {
	r := newGenRNG(s.Seed, fmt.Sprintf("value/%d", seed))
	return s.record(r, s.Formats[len(s.Formats)-1])
}

func (s GenSchema) record(r *genRNG, gf GenFormat) pbio.Record {
	rec := make(pbio.Record, len(gf.Fields))
	lens := map[string]int{} // count field -> the length its arrays share
	for _, fs := range gf.Fields {
		n := fs.Count
		if fs.Dynamic {
			if _, drawn := lens[fs.CountField]; !drawn {
				lens[fs.CountField] = r.intn(6) // 0: the empty array
			}
			n = lens[fs.CountField]
			rec[fs.CountField] = int64(n)
		}
		switch {
		case fs.Dynamic || fs.Count > 1:
			rec[fs.Name] = s.array(r, fs, n)
		case fs.Kind == pbio.Nested:
			rec[fs.Name] = s.record(r, s.format(fs.NestedName))
		default:
			if _, isCount := rec[fs.Name]; !isCount {
				rec[fs.Name] = scalarOf(fs).draw(r)
			}
		}
	}
	return rec
}

func (s GenSchema) array(r *genRNG, fs pbio.FieldSpec, n int) interface{} {
	sc := scalarOf(fs)
	switch fs.Kind {
	case pbio.Nested:
		out := make([]pbio.Record, n)
		for i := range out {
			out[i] = s.record(r, s.format(fs.NestedName))
		}
		return out
	case pbio.Int, pbio.Char:
		out := make([]int64, n)
		for i := range out {
			out[i] = sc.draw(r).(int64)
		}
		return out
	case pbio.Uint:
		out := make([]uint64, n)
		for i := range out {
			out[i] = sc.draw(r).(uint64)
		}
		return out
	case pbio.Float:
		out := make([]float64, n)
		for i := range out {
			out[i] = sc.draw(r).(float64)
		}
		return out
	case pbio.Bool:
		out := make([]bool, n)
		for i := range out {
			out[i] = sc.draw(r).(bool)
		}
		return out
	default:
		out := make([]string, n)
		for i := range out {
			out[i] = sc.draw(r).(string)
		}
		return out
	}
}

const genAlnum = "abcdefghijklmnopqrstuvwxyz0123456789"

// draw returns one value of the scalar type in decoded form. One value in
// four is an extreme of the type's range.
func (sc scalar) draw(r *genRNG) interface{} {
	raw, edge := r.next(), r.intn(4) == 0
	switch sc.kind {
	case pbio.Int, pbio.Char:
		if edge {
			return []int64{-1 << (sc.bits - 1), 1<<(sc.bits-1) - 1, -1, 0}[raw%4]
		}
		return int64(raw) >> (64 - sc.bits)
	case pbio.Uint:
		if edge {
			return []uint64{1<<sc.bits - 1, 1 << (sc.bits - 1), 0}[raw%3]
		}
		return raw >> (64 - sc.bits)
	case pbio.Float:
		// Multiples of 1/8 below 2^20 are exact as float32 and as text.
		v := float64(int64(raw%(1<<23))-1<<22) / 8
		if edge && sc.bits == 64 {
			v *= 1e200
		}
		return v
	case pbio.Bool:
		return raw&1 == 1
	default:
		b := make([]byte, raw%13) // 0: the empty string
		for i := range b {
			b[i] = genAlnum[r.intn(len(genAlnum))]
		}
		return string(b)
	}
}

// GoType builds a struct type the root format binds to, nested formats
// becoming nested struct types. Each field draws its Go type from those Bind
// accepts for it: the 64-bit type the bulk kernels fill directly, or the
// narrowest one that holds every generated value; arrays as slices or, when
// static, Go arrays; nested records by value or by pointer.
func (s GenSchema) GoType(seed int64) reflect.Type {
	r := newGenRNG(s.Seed, fmt.Sprintf("gotype/%d", seed))
	return s.structOf(r, s.Formats[len(s.Formats)-1])
}

func (s GenSchema) structOf(r *genRNG, gf GenFormat) reflect.Type {
	fields := make([]reflect.StructField, len(gf.Fields))
	for i, fs := range gf.Fields {
		var t reflect.Type
		if fs.Kind == pbio.Nested {
			t = s.structOf(r, s.format(fs.NestedName))
			if !fs.Dynamic && fs.Count <= 1 && r.intn(2) == 0 {
				t = reflect.PointerTo(t)
			}
		} else {
			t = scalarOf(fs).goType(r)
		}
		switch {
		case fs.Count > 1 && r.intn(2) == 0:
			t = reflect.ArrayOf(fs.Count, t)
		case fs.Count > 1 || fs.Dynamic:
			t = reflect.SliceOf(t)
		}
		fields[i] = reflect.StructField{
			Name: fmt.Sprintf("F%d", i), Type: t,
			Tag: reflect.StructTag(fmt.Sprintf(`pbio:"%s"`, fs.Name)),
		}
	}
	return reflect.StructOf(fields)
}

func (sc scalar) goType(r *genRNG) reflect.Type {
	wide := r.intn(2) == 0
	pick := func(w, narrow interface{}) reflect.Type {
		if wide {
			return reflect.TypeOf(w)
		}
		return reflect.TypeOf(narrow)
	}
	switch sc.kind {
	case pbio.Int, pbio.Char:
		return pick(int64(0), map[uint]interface{}{8: int8(0), 16: int16(0), 32: int32(0), 64: int64(0)}[sc.bits])
	case pbio.Uint:
		return pick(uint64(0), map[uint]interface{}{8: uint8(0), 16: uint16(0), 32: uint32(0), 64: uint64(0)}[sc.bits])
	case pbio.Float:
		return pick(float64(0), map[uint]interface{}{32: float32(0), 64: float64(0)}[sc.bits])
	case pbio.Bool:
		return reflect.TypeOf(false)
	default:
		return reflect.TypeOf("")
	}
}
