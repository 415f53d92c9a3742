package eventbus

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// pipeListener is an in-memory listener: every dial is one net.Pipe, its far
// end handed to Accept.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(context.Context, string, string) (net.Conn, error) {
	near, far := net.Pipe()
	select {
	case l.conns <- far:
		return near, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// fuzzFormats are the formats a fuzzed peer announces and publishes in: the
// well-behaved publisher's, the same record laid out for another machine,
// and one the well-behaved subscribers' scope cannot slice.
func fuzzFormats(t testing.TB) []*pbio.Format {
	ctx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		t.Fatal(err)
	}
	other, err := ctx.RegisterSpec("Other", []pbio.FieldSpec{
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		{Name: "s", Kind: pbio.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*pbio.Format{flightFormat(t, machine.X86_64), flightFormat(t, machine.Sparc), other}
}

// fuzzFields are the names a fuzzed scope is drawn from: real fields of the
// flight format, a field of the other one, and one no format has.
var fuzzFields = []string{"cntrID", "fltNum", "eta", "eta_count", "n", "nope"}

// peerFrames decodes fuzz input into the frames a peer sends: each op byte
// picks a frame type and the bytes after it pick its contents. It never
// publishes on the well-behaved stream, which a peer with a valid format
// may legitimately fill.
func peerFrames(t *testing.T, data []byte, formats []*pbio.Format) (frames [][]byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	streams := []string{"flights", "other", ""}
	for len(data) > 0 {
		op, arg := next(), next()
		var typ byte
		var p []byte
		switch op % 10 {
		case 0: // a subscribe's answer, sent the wrong way
			typ, p = frameSubscribed, putStr(nil, streams[int(arg)%len(streams)])
		case 1:
			typ, p = frameFormat, pbio.MarshalMeta(formats[int(arg)%len(formats)])
		case 2:
			typ, p = frameAnnounce, putStr(nil, streams[int(arg)%len(streams)])
		case 3:
			var scope []string
			for bits := next(); bits != 0; bits >>= 1 {
				if bits&1 != 0 {
					scope = append(scope, fuzzFields[int(arg+bits)%len(fuzzFields)])
				}
			}
			typ, p = frameSubscribe, subscribePayload(streams[int(arg)%len(streams)], scope)
		case 4, 5:
			f := formats[int(arg)%len(formats)]
			rec, err := f.Encode(pbio.Record{"fltNum": int(next()), "eta": []uint64{1}, "s": "x"})
			if err != nil {
				t.Fatal(err)
			}
			typ, p = framePublish, putStr(nil, streams[1+int(arg)%2])
			if op%10 == 5 {
				typ, p = framePublishTrace, putTraceCtx(p, [16]byte{1}, [8]byte{2})
			}
			p = append(append(p, f.ID[:]...), rec...)
			if cut := int(next()); cut < len(p) && arg&0x80 != 0 {
				p = p[:cut] // a truncated payload
			}
		case 6:
			typ, p = frameUnsub, putStr(nil, streams[int(arg)%len(streams)])
		case 7:
			typ = frameList
		case 8:
			typ = frameSubscribed + 1 + arg%64 // no such frame type
		case 9:
			// Any type byte but a publish, whose raw bytes might spell out
			// the well-behaved stream, with raw bytes for a payload.
			if typ = arg; typ == framePublish || typ == framePublishTrace {
				typ = frameAnnounce
			}
			p = data[:min(int(next()), len(data))]
			data = data[len(p):]
		}
		frame, err := newFrame(typ, p)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// FuzzDispatch drives Broker.dispatch, the broker's parser of peer bytes,
// with a frame sequence decoded from the input, sent by one connection
// beside a well-behaved publisher and a plain and a scoped subscriber of
// one stream. Nothing may panic, the well-behaved pair must get every
// record, in order and decodable, the peer's connection must end in a
// frameError or a close, and Close must leave no goroutine behind.
func FuzzDispatch(f *testing.F) {
	for op := byte(0); op < 10; op++ {
		f.Add([]byte{op, 1, 3, 200})
	}
	f.Add([]byte{1, 0, 3, 0, 6, 4, 0, 9, 5, 5, 0, 9, 2})  // format, scoped subscribe, publish, traced publish
	f.Add([]byte{1, 2, 3, 0, 3, 4, 2, 7, 6, 0, 8, 3})     // a scope the format cannot satisfy
	f.Add([]byte{1, 0, 4, 0x80, 9, 3, 9, 11, 4, 0, 0, 0}) // truncated publish, raw frames
	f.Fuzz(func(t *testing.T, data []byte) {
		testutil.NoGoroutineLeak(t)
		formats := fuzzFormats(t)
		peer := peerFrames(t, data, formats)

		ln := newPipeListener()
		b := NewBroker(ln, withSlog(quietLogger), WithObserver(obsv.New()))
		defer b.Close()
		dial := WithDialFunc(ln.dial)
		var subs []*Subscriber
		for _, scope := range [][]string{nil, {"fltNum"}} {
			sub, err := DialSubscriber("pipe", subCtx(t), dial)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			if err := sub.SubscribeFields("flights", scope...); err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		pub, err := DialPublisher("pipe", dial)
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()

		conn, err := ln.dial(context.Background(), "", "")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		ended := make(chan error, 1) // how the peer's connection ended
		go func() {
			var buf []byte
			for {
				typ, payload, newBuf, err := readFrame(conn, buf)
				if err != nil {
					ended <- err
					return
				}
				buf = newBuf
				if typ == frameError {
					ended <- &BrokerError{Msg: string(payload)}
					_, _ = io.Copy(io.Discard, conn)
					return
				}
			}
		}()
		sent := make(chan error, 1)
		go func() {
			for _, frame := range peer {
				if err := writeWire(conn, frame); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()

		const records = 10
		for i := 0; i < records; i++ {
			if err := pub.Publish("flights", formats[0], encodeFlight(t, formats[0], i)); err != nil {
				t.Fatal(err)
			}
		}
		stuck := time.AfterFunc(10*time.Second, func() {
			for _, sub := range subs {
				_ = sub.Close()
			}
		})
		defer stuck.Stop()
		for n, sub := range subs {
			for i := 0; i < records; i++ {
				ev, err := sub.Next()
				if err != nil {
					t.Fatalf("well-behaved subscriber %d, record %d: %v", n, i, err)
				}
				rec, err := ev.Decode()
				if err != nil || rec["fltNum"] != int64(i) {
					t.Fatalf("well-behaved subscriber %d, record %d: %v, %v", n, i, rec, err)
				}
			}
		}

		if err := <-sent; err != nil {
			// The broker hung up part way through: with its reason first,
			// unless the pipe closed before the reason could be read.
			var be *BrokerError
			if got := <-ended; !errors.As(got, &be) && !errors.Is(got, io.EOF) && !errors.Is(got, io.ErrClosedPipe) {
				t.Fatalf("the peer's connection ended with %v, want a frameError or a close", got)
			}
		}
	})
}
