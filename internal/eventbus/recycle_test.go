package eventbus

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// poisonSpares makes every broker started before the test ends overwrite
// each chunk that goes back on its spare list, so a frame still queued from
// a recycled chunk reaches its subscriber as poison.
func poisonSpares(t *testing.T) {
	t.Helper()
	chunkReturned = func(chunk []byte) {
		for i := range chunk {
			chunk[i] = 0xA5
		}
	}
	t.Cleanup(func() { chunkReturned = nil })
}

// poisonFormat is a record of a sequence number, a field scopes leave out
// and a byte array whose length sets the frame's size.
func poisonFormat(t *testing.T, name string) *pbio.Format {
	t.Helper()
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.RegisterSpec(name, []pbio.FieldSpec{
		{Name: "seq", Kind: pbio.Int, CType: machine.CLong},
		{Name: "pad", Kind: pbio.Int, CType: machine.CInt},
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "b", Kind: pbio.Uint, CType: machine.CUChar, Dynamic: true, CountField: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// poisonBytes is record seq's array: a pattern no two neighbouring records
// share, and never all poison.
func poisonBytes(seq, n int) []uint64 {
	b := make([]uint64, n)
	for i := range b {
		b[i] = uint64(byte(seq*31 + i))
	}
	return b
}

// poisonSizes are the frame sizes, header included, that the records of an
// untraced publish come in, cycled through: small frames, and one byte
// either side of the largest a subscriber's reader slices (4 KiB), of the
// largest the broker's reader slices and carves an image from
// (pbio.MaxChunkFrame) and of a chunk. A traced frame is 24 bytes larger.
var poisonSizes = []int{
	100, 4095, 1000, 4096, 4097, 300,
	pbio.MaxChunkFrame - 1, pbio.MaxChunkFrame, 2000, pbio.MaxChunkFrame + 1,
	pbio.FrameChunk - 1, 500, pbio.FrameChunk, pbio.FrameChunk + 1,
}

// TestPoisonedSparesDeliverIntact runs traffic through a broker whose spare
// list poisons every chunk put back on it, and checks every byte delivered.
// Untraced and traced records alternate from two publishers, which are
// replaced by fresh connections halfway, so the chunks of a connection that
// has gone still have frames queued; four subscribers read every record: plain
// and scoped, untraced and traced, so the class images come from the read
// chunks and from the image chunks. A fifth, plain, has the broker's writes
// to it held at a gate until the traffic is over: its queue overflows, so
// frames are dropped and give their reference back, and the frames left
// queued wait there while every other chunk is recycled. What reaches it
// once the gate opens must be intact too.
func TestPoisonedSparesDeliverIntact(t *testing.T) {
	poisonSpares(t)
	const records = 140
	tr := trace.New(0, 64)
	tr.SetSampling(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := new(gates)
	b := NewBroker(&firstGated{Listener: ln, g: g}, withSlog(quietLogger), WithObserver(obsv.New()), WithRecorder(tr), WithQueueDepth(16))
	defer b.Close()
	addr := b.Addr().String()
	const stream = "poison"
	f := poisonFormat(t, "Poison")

	// The stalled subscriber connects first: the broker's writes to it wait
	// at the gate until the traffic is over.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := writeFrame(stalled, frameSubscribe, putStr(nil, stream)); err != nil {
		t.Fatal(err)
	}
	waitForStream(t, b, stream, 1)
	g.writes.shut()
	defer g.writes.open()
	type sub struct {
		name   string
		s      *Subscriber
		scoped bool
	}
	var subs []sub
	for _, c := range []struct {
		name   string
		traced bool
		scope  []string
	}{
		{"plain", false, nil}, {"plain traced", true, nil},
		{"scoped", false, []string{"seq", "b"}}, {"scoped traced", true, []string{"seq", "b"}},
	} {
		var opts []ClientOption
		if c.traced {
			opts = append(opts, WithClientRecorder(tr))
		}
		s, err := DialSubscriber(addr, subCtx(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.SubscribeFields(stream, c.scope...); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{c.name, s, c.scope != nil})
	}

	// The array length that gives an untraced frame of each size.
	empty, err := f.Encode(pbio.Record{"seq": 0, "b": []uint64{}})
	if err != nil {
		t.Fatal(err)
	}
	overhead := pbio.FrameHeaderLen + 2 + len(stream) + 8 + len(empty)
	encoded := make([][]byte, records)
	for i := range encoded {
		n := poisonSizes[i%len(poisonSizes)] - overhead
		if encoded[i], err = f.Encode(pbio.Record{"seq": i, "pad": -1, "b": poisonBytes(i, n)}); err != nil {
			t.Fatal(err)
		}
		if len(encoded[i]) != len(empty)+n {
			t.Fatalf("record %d: %d bytes, want %d", i, len(encoded[i]), len(empty)+n)
		}
	}

	dial := func() [2]*Publisher {
		var pubs [2]*Publisher
		for k, opts := range [][]ClientOption{nil, {WithClientRecorder(tr)}} {
			if pubs[k], err = DialPublisher(addr, opts...); err != nil {
				t.Fatal(err)
			}
		}
		return pubs
	}
	pubs := dial()
	defer func() {
		for _, p := range pubs {
			_ = p.Close()
		}
	}()
	for i := 0; i < records; i++ {
		if i == records/2 {
			for _, p := range pubs {
				_ = p.Close()
			}
			pubs = dial()
		}
		if err := pubs[i%2].Publish(stream, f, encoded[i]); err != nil {
			t.Fatal(err)
		}
		for _, s := range subs {
			ev, err := s.s.Next()
			if err != nil {
				t.Fatalf("%s subscriber, record %d: %v", s.name, i, err)
			}
			if err := checkPoisonRecord(ev, s.scoped, i, encoded[i], len(encoded[i])-len(empty)); err != nil {
				t.Fatalf("%s subscriber: %v", s.name, err)
			}
		}
	}
	if b.Stats().Dropped == 0 {
		t.Fatal("the stalled subscriber's queue never overflowed: the drop path was not run")
	}

	// A format new to the stream is queued behind every frame the stalled
	// subscriber has coming, and is never dropped: it reads up to there.
	g.writes.open()
	fence := poisonFormat(t, "Fence")
	data, err := fence.Encode(pbio.Record{"seq": records, "b": []uint64{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pubs[0].Publish(stream, fence, data); err != nil {
		t.Fatal(err)
	}
	_ = stalled.SetReadDeadline(time.Now().Add(mustSendStall))
	var buf []byte
	got := 0
	for {
		typ, payload, newBuf, err := readFrame(stalled, buf)
		if err != nil {
			t.Fatalf("stalled subscriber, after %d records: %v", got, err)
		}
		buf = newBuf
		if typ == frameFormat {
			if ff, err := pbio.UnmarshalMeta(payload); err == nil && ff.ID == fence.ID {
				break
			}
		}
		if typ != frameEvent {
			continue
		}
		name, rest, err := getStr(payload)
		if err != nil || name != stream || len(rest) < 8 || pbio.FormatID(rest[:8]) != f.ID {
			t.Fatalf("stalled subscriber: event %d is not a Poison record on %q", got, stream)
		}
		rec, err := f.Decode(rest[8:])
		if err != nil {
			t.Fatalf("stalled subscriber: event %d: %v", got, err)
		}
		seq, ok := rec["seq"].(int64)
		if !ok || seq < 0 || seq >= records || !bytes.Equal(rest[8:], encoded[seq]) {
			t.Fatalf("stalled subscriber: event %d (seq %v) is not the record published", got, rec["seq"])
		}
		got++
	}
	t.Logf("%d records to 4 subscribers; the stalled one got %d, %d dropped", records, got, b.Stats().Dropped)
	if got == 0 {
		t.Error("the stalled subscriber received no record")
	}
}

// checkPoisonRecord checks that ev is record seq, published as data with n
// array bytes: the same bytes for a plain subscriber, the same seq and array
// for a scoped one.
func checkPoisonRecord(ev Event, scoped bool, seq int, data []byte, n int) error {
	if !scoped {
		if !bytes.Equal(ev.Data, data) {
			return fmt.Errorf("record %d: %d bytes differ from the %d published", seq, len(ev.Data), len(data))
		}
		return nil
	}
	rec, err := ev.Decode()
	if err != nil {
		return fmt.Errorf("record %d: %w", seq, err)
	}
	want := poisonBytes(seq, n)
	arr, _ := rec["b"].([]uint64)
	if rec["seq"] != int64(seq) || len(arr) != len(want) || rec["pad"] != nil {
		return fmt.Errorf("record %d: seq %v, %d array bytes, pad %v", seq, rec["seq"], len(arr), rec["pad"])
	}
	for i := range arr {
		if arr[i] != want[i] {
			return fmt.Errorf("record %d: array byte %d is %#x, want %#x", seq, i, arr[i], want[i])
		}
	}
	return nil
}

// firstGated is a listener whose first accepted connection reads and writes
// through the gates g.
type firstGated struct {
	net.Listener
	g        *gates
	accepted int // only the broker's accept loop touches it
}

func (l *firstGated) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.accepted++; l.accepted == 1 {
		return gatedConn{c, l.g}, nil
	}
	return c, nil
}
