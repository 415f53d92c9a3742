package openmeta

import (
	"fmt"
	"testing"

	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// codecLarge is the repository benchmark's 10 KB record (large_convert): 20
// ints, 20 doubles, 8 strings of 32 characters and a dynamic array of 1200
// doubles, as a compiled-in struct and as the generic record it decodes to.
type codecLarge struct {
	Seq                                                                            int64
	Sum                                                                            float64
	D0, D1, D2, D3, D4, D5, D6, D7, D8, D9                                         float64
	D10, D11, D12, D13, D14, D15, D16, D17, D18, D19                               float64
	S0, S1, S2, S3, S4, S5, S6, S7                                                 string
	Arr                                                                            []float64
	I0, I1, I2, I3, I4, I5, I6, I7, I8, I9, I10, I11, I12, I13, I14, I15, I16, I17 int32
	I18, I19                                                                       int32
}

func codecLargeFormat(tb testing.TB, arch *machine.Arch) *pbio.Format {
	ctx, err := pbio.NewContext(arch)
	if err != nil {
		tb.Fatal(err)
	}
	specs := []pbio.FieldSpec{
		{Name: "seq", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "sum", Kind: pbio.Float, CType: machine.CDouble},
	}
	for i := 0; i < 20; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("d%d", i), Kind: pbio.Float, CType: machine.CDouble})
	}
	for i := 0; i < 8; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("s%d", i), Kind: pbio.String})
	}
	specs = append(specs, pbio.FieldSpec{Name: "arr", Kind: pbio.Float, CType: machine.CDouble, Dynamic: true, CountField: "arr_count"})
	for i := 0; i < 20; i++ {
		specs = append(specs, pbio.FieldSpec{Name: fmt.Sprintf("i%d", i), Kind: pbio.Int, CType: machine.CInt})
	}
	specs = append(specs, pbio.FieldSpec{Name: "arr_count", Kind: pbio.Int, CType: machine.CInt})
	f, err := ctx.RegisterSpec("CodecLarge", specs)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func codecLargeRecord() pbio.Record {
	rec := pbio.Record{"seq": int64(42), "sum": 1234.5}
	for i := 0; i < 20; i++ {
		rec[fmt.Sprintf("d%d", i)] = float64(i) / 8
		rec[fmt.Sprintf("i%d", i)] = int64(i * 1000)
	}
	for i := 0; i < 8; i++ {
		rec[fmt.Sprintf("s%d", i)] = fmt.Sprintf("%032d", i)
	}
	arr := make([]float64, 1200)
	for i := range arr {
		arr[i] = float64(i) / 8
	}
	rec["arr"] = arr
	return rec
}

// BenchmarkCodecLarge is the owner benchmark of the pbio field program and
// the dcg kernels on the 10 KB shape. Each stage of a heterogeneous delivery
// is its own sub-benchmark — generic encode and decode, bound encode and
// decode, x86-64 → Sparc64 convert — never one round-trip figure, so a
// regression names its stage.
func BenchmarkCodecLarge(b *testing.B) {
	src, dst := codecLargeFormat(b, machine.X86_64), codecLargeFormat(b, machine.Sparc64)
	rec := codecLargeRecord()
	ndr, err := src.Encode(rec)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := dcg.Compile(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	big, err := plan.Convert(ndr)
	if err != nil {
		b.Fatal(err)
	}
	bind, err := src.Bind(codecLarge{})
	if err != nil {
		b.Fatal(err)
	}
	var typed codecLarge
	if err := bind.Decode(ndr, &typed); err != nil {
		b.Fatal(err)
	}
	run := func(name string, size int, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	run("encode", len(ndr), func() { _, _ = src.Encode(rec) })
	run("decode", len(big), func() { _, _ = dst.Decode(big) })
	run("bound_encode", len(ndr), func() { _, _ = bind.Encode(&typed) })
	run("bound_decode", len(ndr), func() { _ = bind.Decode(ndr, &typed) })
	run("convert", len(ndr), func() { _, _ = plan.Convert(ndr) })
}
