package eventbus

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"openmeta/internal/pbio"
)

// FuzzSubscriberFrames drives the subscriber's parser of broker bytes — Next
// and the receive loop under it — with raw bytes a fake broker writes over
// net.Pipe once it has answered the subscribe. Every Next must return, an
// event or an error, within the deadline and without a panic, and an
// event's Decode must return.
func FuzzSubscriberFrames(f *testing.F) {
	formats := fuzzFormats(f)
	meta := pbio.MarshalMeta(formats[0])
	event := putStr(nil, "flights")
	event = append(append(event, formats[0].ID[:]...), encodeFlight(f, formats[0], 7)...)
	frames := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }
	frame := func(typ byte, payload []byte) []byte {
		b, err := newFrame(typ, payload)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(frames(frame(frameFormat, meta), frame(frameEvent, event)))
	f.Add(frames(frame(frameEvent, event), frame(frameFormat, meta), frame(frameEvent, event))) // a format frame after its event
	f.Add(frames(frame(frameFormat, meta), frame(frameEventTrace, append(putStr(nil, "flights"), 1, 2, 3))))
	f.Add(frames(frame(frameSubscribed, putStr(nil, "other")), frame(frameFormat, meta), frame(frameEvent, event)))
	f.Add(frames(frame(frameStreams, []byte("a\x00b")), frame(frameError, []byte("no"))))
	over := []byte{frameEvent, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(over[1:], maxFrame+1)
	f.Add(frames(frame(frameFormat, meta), over)) // a frame over maxFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		near, far := net.Pipe()
		broker := make(chan struct{})
		go func() {
			defer close(broker)
			defer far.Close()
			typ, payload, _, err := readFrame(far, nil)
			if err != nil || typ != frameSubscribe {
				return
			}
			name, _, _ := getBytes(payload)
			if writeFrame(far, frameSubscribed, putStr(nil, string(name))) == nil {
				_, _ = far.Write(data)
			}
		}()
		sub, err := DialSubscriber("pipe", subCtx(t), WithDialFunc(func(context.Context, string, string) (net.Conn, error) { return near, nil }))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = sub.Close(); <-broker }()
		if err := sub.Subscribe("flights"); err != nil {
			t.Fatal(err)
		}
		var stuck atomic.Bool
		deadline := time.AfterFunc(5*time.Second, func() { stuck.Store(true); _ = sub.Close() })
		defer deadline.Stop()
		for i := 0; i <= len(data); i++ { // every event takes at least one byte
			ev, err := sub.Next()
			if err != nil {
				break
			}
			_, _ = ev.Decode()
		}
		if stuck.Load() {
			t.Fatal("Next did not return within 5s")
		}
	})
}
