package openmeta

// The paper's tables are benchmarked in internal/bench (BenchmarkTable*),
// on the operations cmd/benchtab times. The root keeps what no table
// measures: struct binding against the generic record (here) and the
// repository benchmark's 10 KB record stage by stage (bench_codec_test.go).

import (
	"testing"

	"openmeta/internal/bench"
)

// BenchmarkBindingVsGeneric quantifies what struct binding buys over the
// generic record path (an implementation ablation beyond the paper).
func BenchmarkBindingVsGeneric(b *testing.B) {
	c := bench.StructureBCase()
	// The case's IOField offsets are the paper's 32-bit SPARC layout, on
	// which Native registers it.
	f, err := c.Native()
	if err != nil {
		b.Fatal(err)
	}
	type asdOff struct {
		CntrID string `pbio:"cntrID"`
		Arln   string `pbio:"arln"`
		FltNum int32  `pbio:"fltNum"`
		Equip  string `pbio:"equip"`
		Org    string `pbio:"org"`
		Dest   string `pbio:"dest"`
		Off    [5]uint32
		Eta    []uint32
	}
	bind, err := f.Bind(asdOff{})
	if err != nil {
		b.Fatal(err)
	}
	v := asdOff{CntrID: "ZTL", Arln: "DL", FltNum: 1842, Equip: "B757",
		Org: "ATL", Dest: "MCO", Off: [5]uint32{1, 2, 3, 4, 5}, Eta: []uint32{10, 20, 30}}
	data, err := bind.Encode(&v)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode/bound", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(data))
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = bind.AppendEncode(buf[:0], &v)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/generic", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(data))
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = f.AppendEncode(buf[:0], c.Record)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/bound", func(b *testing.B) {
		b.ReportAllocs()
		var out asdOff
		for i := 0; i < b.N; i++ {
			if err := bind.Decode(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := f.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
