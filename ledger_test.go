package openmeta

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"

	"openmeta/internal/core"
	"openmeta/internal/dcg"
	"openmeta/internal/eventbus"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// The ledger's counts in tier-1: the repository benchmark's three bus
// workloads (benchmark/README.md), in the same record shapes and through
// the same entry points, run here as pingpong rounds on loopback. What is
// pinned per record is the system's share of the benchmark's counts —
// Publish, the broker, Next, Convert and Decode, with no encode and no
// verify — and the bytes that cross the client sockets. The counts repeat
// run to run, so a change that moves one fails here, not only in a
// benchmark run.

const (
	ledgerWarmup = 2000
	ledgerRounds = 20000
	ledgerStream = "bench" // the benchmark's stream name: it is in every frame
)

// ledgerShape is one bus workload: its record and what its subscribers do.
type ledgerShape struct {
	name                   string
	ints, dbls, strs, strN int
	arr                    int // elements of the dynamic double array; 0 for none
	typed                  bool
	subs                   []ledgerSub
}

type ledgerSub int

const (
	subPlain   ledgerSub = iota // same architecture: decode
	subScoped                   // fields seq, d0, d1: the broker projects
	subConvert                  // Sparc64: dcg convert, then decode
)

// ledgerRow is what a workload is pinned at, per record: allocations and
// bytes allocated by the system, and wire bytes. Allocations may rise by
// 0.02 and bytes by 1 %; wire bytes are exact.
type ledgerRow struct {
	shape         ledgerShape
	allocs, bytes float64
	wire          int64
}

// ledgerRows are pinned at the counts measured once the broker's read and
// image chunks were recycled. Before that every row had a share of a
// broker read chunk more, 118 to 1,140 bytes, and large_convert one
// allocation and 10,240 bytes more: the broker's copy of every publish
// frame over 4 KiB.
var ledgerRows = []ledgerRow{
	{ledgerShape{name: "small_plain", ints: 4, dbls: 4, strs: 2, strN: 8, subs: []ledgerSub{subPlain}}, 5.003, 910.3, 236},
	{ledgerShape{name: "large_convert", ints: 20, dbls: 20, strs: 8, strN: 32, arr: 1200, subs: []ledgerSub{subConvert}}, 7.019, 33752.5, 20440},
	{ledgerShape{name: "fanout_mixed", ints: 10, dbls: 10, strs: 4, strN: 16, arr: 100, typed: true, subs: []ledgerSub{subPlain, subScoped, subConvert}}, 10.041, 6193.1, 3272},
}

// ledgerRecord is fanout_mixed's record as a Go type, for the typed path.
type ledgerRecord struct {
	Seq                                    int64
	Sum                                    float64
	I0, I1, I2, I3, I4, I5, I6, I7, I8, I9 int32
	D0, D1, D2, D3, D4, D5, D6, D7, D8, D9 float64
	S0, S1, S2, S3                         string
	Arr                                    []float64
}

// schema writes the shape as an XML Schema document, its fields grouped by
// size as the benchmark's generator groups them.
func (s ledgerShape) schema() []byte {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema" targetNamespace="urn:openmeta:ledger">
  <xsd:complexType name="Ledger">
    <xsd:element name="seq" type="xsd:long" />
    <xsd:element name="sum" type="xsd:double" />
`)
	element := func(name, typ, occurs string) {
		fmt.Fprintf(&b, "    <xsd:element name=%q type=%q%s />\n", name, typ, occurs)
	}
	for i := 0; i < s.dbls; i++ {
		element(fmt.Sprintf("d%d", i), "xsd:double", "")
	}
	for i := 0; i < s.strs; i++ {
		element(fmt.Sprintf("s%d", i), "xsd:string", "")
	}
	if s.arr > 0 {
		element("arr", "xsd:double", ` minOccurs="0" maxOccurs="*"`)
	}
	for i := 0; i < s.ints; i++ {
		element(fmt.Sprintf("i%d", i), "xsd:int", "")
	}
	b.WriteString("  </xsd:complexType>\n</xsd:schema>\n")
	return []byte(b.String())
}

// record is record seq of the shape, at the sizes the benchmark's are.
func (s ledgerShape) record(seq int) pbio.Record {
	rec := pbio.Record{"seq": int64(seq), "sum": float64(seq) / 8}
	for i := 0; i < s.ints; i++ {
		rec[fmt.Sprintf("i%d", i)] = int64(seq + i)
	}
	for i := 0; i < s.dbls; i++ {
		rec[fmt.Sprintf("d%d", i)] = float64(seq+i) / 4
	}
	for i := 0; i < s.strs; i++ {
		rec[fmt.Sprintf("s%d", i)] = fmt.Sprintf("%0*d", s.strN, seq+i)
	}
	if s.arr > 0 {
		arr := make([]float64, s.arr)
		for i := range arr {
			arr[i] = float64(seq ^ i)
		}
		rec["arr"], rec["arr_count"] = arr, int64(s.arr)
	}
	return rec
}

// ledgerSubscriber is one subscriber connection and what it does with a record.
type ledgerSubscriber struct {
	kind ledgerSub
	sub  *eventbus.Subscriber
	dst  *pbio.Format // subConvert: the Sparc64 format
	plan *dcg.Plan
	bind *pbio.Binding // typed subPlain
	out  ledgerRecord
}

// receive takes the next record and converts and decodes it.
func (s *ledgerSubscriber) receive(typed bool) (int64, error) {
	ev, err := s.sub.Next()
	if err != nil {
		return 0, err
	}
	data, f := ev.Data, ev.Format
	if s.kind == subConvert {
		if s.plan == nil {
			if s.plan, err = dcg.Compile(f, s.dst); err != nil {
				return 0, err
			}
		}
		if data, err = s.plan.Convert(data); err != nil {
			return 0, err
		}
		f = s.dst
	}
	if typed && s.kind == subPlain {
		if s.bind == nil {
			if s.bind, err = f.Bind(ledgerRecord{}); err != nil {
				return 0, err
			}
		}
		err = s.bind.Decode(data, &s.out)
		return s.out.Seq, err
	}
	rec, err := f.Decode(data)
	if err != nil {
		return 0, err
	}
	seq, _ := rec["seq"].(int64)
	return seq, nil
}

// TestLedgerCounts runs each bus workload for ledgerWarmup and then
// ledgerRounds pingpong rounds, one record in flight, and pins the system's
// counts per record of the timed rounds.
func TestLedgerCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a build without the race detector")
	}
	for _, row := range ledgerRows {
		t.Run(row.shape.name, func(t *testing.T) {
			allocs, bytes, wire, calls := ledgerRun(t, row.shape)
			t.Logf("%s: %.4f allocations, %.1f bytes allocated, %d wire bytes, %.2f socket calls per record",
				row.shape.name, allocs, bytes, wire, calls)
			if allocs > row.allocs+0.02 {
				t.Errorf("%.3f allocations per record, pinned at %.3f", allocs, row.allocs)
			}
			if bytes > row.bytes*1.01 {
				t.Errorf("%.0f bytes allocated per record, pinned at %.0f", bytes, row.bytes)
			}
			if wire != row.wire {
				t.Errorf("%d wire bytes per record, pinned at %d", wire, row.wire)
			}
		})
	}
}

// ledgerRun sets one workload up and measures its timed rounds, with the
// reads and writes the clients make, which are logged and not pinned.
func ledgerRun(t *testing.T, shape ledgerShape) (allocs, bytes float64, wire int64, calls float64) {
	t.Helper()
	b, err := eventbus.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var counts testutil.IOCounts
	dial := eventbus.WithDialFunc(func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return testutil.CountConn(c, &counts), nil
	})

	pubCtx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.RegisterDocument(pubCtx, shape.schema())
	if err != nil {
		t.Fatal(err)
	}
	f := set.Root()
	var subs []*ledgerSubscriber
	for _, kind := range shape.subs {
		arch := machine.X86_64
		if kind == subConvert {
			arch = machine.Sparc64
		}
		ctx, err := pbio.NewContext(arch)
		if err != nil {
			t.Fatal(err)
		}
		s := &ledgerSubscriber{kind: kind}
		if kind == subConvert {
			dset, err := core.RegisterDocument(ctx, shape.schema())
			if err != nil {
				t.Fatal(err)
			}
			s.dst = dset.Root()
		}
		if s.sub, err = eventbus.DialSubscriber(b.Addr().String(), ctx, dial); err != nil {
			t.Fatal(err)
		}
		defer s.sub.Close()
		var fields []string
		if kind == subScoped {
			fields = []string{"seq", "d0", "d1"}
		}
		if err := s.sub.SubscribeFields(ledgerStream, fields...); err != nil {
			t.Fatal(err)
		}
		// The broker answers one connection's frames in order: the stream
		// list coming back means the subscription is in place.
		if _, err := s.sub.Streams(); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	pub, err := eventbus.DialPublisher(b.Addr().String(), dial)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const ring = 256
	records := make([][]byte, ring)
	for i := range records {
		if records[i], err = f.Encode(shape.record(i)); err != nil {
			t.Fatal(err)
		}
	}
	round := func(i int) {
		if err := pub.Publish(ledgerStream, f, records[i%ring]); err != nil {
			t.Fatal(err)
		}
		for k, s := range subs {
			seq, err := s.receive(shape.typed)
			if err != nil || seq != int64(i%ring) {
				t.Fatalf("subscriber %d, round %d: seq %d, %v", k, i, seq, err)
			}
		}
	}
	for i := 0; i < ledgerWarmup; i++ {
		round(i)
	}
	wire0 := counts.ReadBytes.Load() + counts.WrittenBytes.Load()
	calls0 := counts.Reads.Load() + counts.Writes.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := ledgerWarmup; i < ledgerWarmup+ledgerRounds; i++ {
		round(i)
	}
	runtime.ReadMemStats(&m1)
	wire1 := counts.ReadBytes.Load() + counts.WrittenBytes.Load()
	calls1 := counts.Reads.Load() + counts.Writes.Load()
	return float64(m1.Mallocs-m0.Mallocs) / ledgerRounds, float64(m1.TotalAlloc-m0.TotalAlloc) / ledgerRounds,
		(wire1 - wire0) / ledgerRounds, float64(calls1-calls0) / ledgerRounds
}
