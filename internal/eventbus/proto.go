// Package eventbus implements the system-wide event backbone of the
// paper's application scenario (Figures 1 and 3): capture points publish
// structured information streams, consumers subscribe by stream name, and
// records travel in PBIO NDR form with format metadata exchanged once per
// connection.
//
// The broker routes records without decoding them — NDR means the bytes on
// the wire are already in the producer's natural representation, and only
// final consumers pay conversion, and only when their representation
// actually differs.
//
// # One protocol
//
// Every peer speaks the same frames, and nothing is negotiated: a
// connection's first frame is whatever its owner has to say. The broker
// answers each subscribe with frameSubscribed once the subscription is in
// its route and the formats the subscriber needs are queued ahead of the
// answer, so a record published after Subscribe returns is delivered.
//
// A record the publisher's recorder samples travels in framePublishTrace and
// reaches every subscriber as frameEventTrace, with a 24-byte trace context
// — TraceID(16) || parent SpanID(8) — ahead of the standard payload, so its
// journey (publisher encode, broker route, subscriber decode, conversions)
// is recoverable as one parent-linked span tree from /debug/trace on each
// hop. A subscriber whose recorder does not sample drops the context:
// Recorder.Join returns the zero Ctx when sampling is disabled.
package eventbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// Frame types of the backbone protocol. Every frame is
// type(1) || length(u32 BE) || payload, encoded and decoded by the one
// header codec in internal/pbio/wire.go.
const (
	frameAnnounce  byte = 1 // publisher -> broker: stream(str)
	frameSubscribe byte = 2 // subscriber -> broker: stream(str)
	frameUnsub     byte = 3 // subscriber -> broker: stream(str)
	frameFormat    byte = 4 // any -> any: format metadata bytes
	framePublish   byte = 5 // publisher -> broker: stream(str) || id(8) || record
	frameEvent     byte = 6 // broker -> subscriber: stream(str) || id(8) || record
	frameList      byte = 7 // subscriber -> broker: empty
	frameStreams   byte = 8 // broker -> subscriber: stream names, NUL-separated
	frameError     byte = 9 // broker -> any: message(str)
	// 10 is left unused: a peer that sends the retired hello gets a frameError.
	framePublishTrace byte = 11 // publisher -> broker: stream(str) || TraceID(16) || SpanID(8) || id(8) || record
	frameEventTrace   byte = 12 // broker -> subscriber: same layout as framePublishTrace
	frameSubscribed   byte = 13 // broker -> subscriber: stream(str), once the subscription is routed
)

// traceCtxLen is the wire size of a trace context: TraceID || parent SpanID.
const traceCtxLen = 16 + 8

// putTraceCtx appends the 24-byte wire trace context.
func putTraceCtx(b []byte, tid trace.TraceID, parent trace.SpanID) []byte {
	b = append(b, tid[:]...)
	return append(b, parent[:]...)
}

// getTraceCtx splits the 24-byte wire trace context off the front of b.
func getTraceCtx(b []byte) (tid trace.TraceID, parent trace.SpanID, rest []byte, err error) {
	if len(b) < traceCtxLen {
		return tid, parent, nil, fmt.Errorf("%w: truncated trace context", ErrBadFrame)
	}
	copy(tid[:], b)
	copy(parent[:], b[16:])
	return tid, parent, b[traceCtxLen:], nil
}

// maxFrame bounds one frame (64 MiB leaves room for large records while
// rejecting corrupt lengths).
const maxFrame = 64 << 20

// frameChunk is a connection's read chunk and write batch, and the broker's
// frame-image chunk. It is memory per connection, not an option: 16 KiB of
// read-ahead measured the same as 64 KiB on every bus workload of the
// repository benchmark. The broker's read and image chunks come from its
// spare list and go back to it once every frame queued from them is written
// (DESIGN.md §5); a subscriber's are never reused, so Event.Data is the
// caller's.
const frameChunk = pbio.FrameChunk

// spareChunks bounds the broker's spare list: frameChunk bytes each, kept for
// reuse while no connection needs them. It trades allocation against
// resident memory. On the repository benchmark's large_convert (128 records
// of 10 KB in flight) 8, 12 and 16 spares allocated 46.0-46.9, 44.9-45.1 and
// 44.4-44.5 KB per record, with median peak RSS 40.5, 39.8 and 42.6 MB
// against 39.1 MB without recycling (2 vCPUs, 3-7 runs each).
const spareChunks = 12

// chunkReturned, unless nil, is called with the bytes of every chunk a new
// broker's spare list gets back. Tests poison them with it.
var chunkReturned func([]byte)

// Protocol errors.
var (
	ErrBadFrame = errors.New("eventbus: malformed frame")
	ErrClosed   = errors.New("eventbus: connection closed")
	// ErrSlowSubscriber reports a subscriber whose outbound queue stayed
	// full past the must-send deadline for an undroppable (format) frame;
	// the broker disconnects such subscribers rather than stall the bus.
	ErrSlowSubscriber = errors.New("eventbus: slow subscriber")
	// ErrBroker matches (via errors.Is) any *BrokerError — a frameError
	// payload the broker sent before closing the connection.
	ErrBroker = errors.New("eventbus: broker error")
)

// BrokerError is a broker-reported protocol failure, carried to the client
// in a frameError payload. It surfaces from the Subscriber's Next,
// SubscribeFields and Streams and — when the broker rejects a publish and
// the error frame arrives before the connection dies — from Publisher
// operations. errors.Is(err, ErrBroker)
// matches it.
type BrokerError struct {
	// Msg is the broker's diagnostic, e.g. `publish on "s" references
	// unannounced format <id>`.
	Msg string
}

func (e *BrokerError) Error() string { return "eventbus: broker: " + e.Msg }

// Is reports ErrBroker as a match so callers can branch without the type.
func (e *BrokerError) Is(target error) bool { return target == ErrBroker }

// newFrame returns payload as one wire-ready frame: header and payload in a
// single buffer, so it reaches the socket in a single Write.
func newFrame(typ byte, payload []byte) ([]byte, error) {
	return pbio.AppendFrame(nil, typ, payload, maxFrame)
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	frame, err := newFrame(typ, payload)
	if err != nil {
		return err
	}
	return writeWire(w, frame)
}

// writeWire sends an already-framed buffer.
func writeWire(w io.Writer, frame []byte) error {
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("eventbus: write frame: %w", err)
	}
	return nil
}

// readFrame reads exactly one frame, for a client awaiting a reply.
func readFrame(r io.Reader, buf []byte) (typ byte, payload, newBuf []byte, err error) {
	return pbio.ReadFrame(r, buf, maxFrame)
}

// putStr appends a length-prefixed string.
func putStr(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(b, uint16(len(s))), s...)
}

// getStr reads a length-prefixed string, returning the remainder.
func getStr(b []byte) (string, []byte, error) {
	s, rest, err := getBytes(b)
	return string(s), rest, err
}

// parseSubscribe decodes a frameSubscribe body: the stream name, then
// optionally a count byte and that many field names. scope is the field
// list as encoded, which names the scope unambiguously; "" is no scope.
func parseSubscribe(payload []byte) (name, scope string, fields []string, err error) {
	name, rest, err := getStr(payload)
	if err != nil || len(rest) == 0 || rest[0] == 0 {
		return name, "", nil, err
	}
	list := rest
	rest = rest[1:]
	for i := 0; i < int(list[0]); i++ {
		var field string
		if field, rest, err = getStr(rest); err != nil {
			return "", "", nil, err
		}
		fields = append(fields, field)
	}
	return name, string(list[:len(list)-len(rest)]), fields, nil
}

// getBytes is getStr without the copy: the string's bytes alias b.
func getBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return nil, nil, ErrBadFrame
	}
	return b[2 : 2+n], b[2+n:], nil
}
