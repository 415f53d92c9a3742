package pbio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"openmeta/internal/machine"
)

// The two limits ReadFrame runs under: Reader/FileReader's, and the event
// backbone's (internal/eventbus maxFrame).
var frameLimits = []struct {
	name  string
	limit int
}{
	{"pbio", MaxFrameSize},
	{"eventbus", 64 << 20},
}

// header returns a frame header of type 2 claiming n payload bytes.
func header(n int) []byte {
	return binary.BigEndian.AppendUint32([]byte{frameRecord}, uint32(n))
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{7}, 3*frameChunk+11), []byte("tail")}
	for i, p := range payloads {
		var err error
		if stream, err = AppendFrame(stream, byte(i+1), p, MaxFrameSize); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range payloads {
		typ, got, newBuf, err := ReadFrame(r, buf, MaxFrameSize)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = newBuf
		if typ != byte(i+1) || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: type %d, %d bytes; want type %d, %d bytes", i, typ, len(got), i+1, len(want))
		}
	}
	if _, _, _, err := ReadFrame(r, buf, MaxFrameSize); err != io.EOF {
		t.Fatalf("at the frame boundary err = %v, want io.EOF verbatim", err)
	}
	if _, err := AppendFrame(nil, 1, make([]byte, 9), 8); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("payload over the limit: err = %v", err)
	}
}

// TestHeaderOnlyAllocatesLittle is the regression test for trusting a length
// field: five bytes claiming the largest frame the limit allows, and nothing
// behind them, must not make the decoder allocate the claim.
func TestHeaderOnlyAllocatesLittle(t *testing.T) {
	for _, tc := range frameLimits {
		t.Run(tc.name, func(t *testing.T) {
			hdr := header(tc.limit)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, err := ReadFrame(bytes.NewReader(hdr), nil, tc.limit)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("a bare header claiming %d bytes made ReadFrame allocate %d bytes, want < 1 MiB", tc.limit, got)
			}
			if _, _, _, err := ReadFrame(bytes.NewReader(header(tc.limit+1)), nil, tc.limit); !errors.Is(err, ErrFrameTooBig) {
				t.Errorf("claim one over the limit: err = %v, want ErrFrameTooBig", err)
			}
		})
	}
}

// TestFileTruncatedAfterHeader: a record file cut right behind a frame
// header is damaged, not finished — a loop that stops on io.EOF must not
// take it for a clean end.
func TestFileTruncatedAfterHeader(t *testing.T) {
	var buf bytes.Buffer
	f := registerB(t, machine.X86)
	fw, err := NewFileWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteValue(f, sampleASDOff()); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	if err := fw.WriteValue(f, sampleASDOff()); err != nil {
		t.Fatal(err)
	}
	// Keep the first record and the second record's frame header only.
	fr, err := NewFileReader(bytes.NewReader(buf.Bytes()[:whole+FrameHeaderLen]), newCtx(t, machine.X86_64))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fr.ReadRecord(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	_, _, err = fr.ReadRecord()
	if errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("record cut after its header: err = %v, want io.ErrUnexpectedEOF and not io.EOF", err)
	}
}

// FuzzReadFrame reads arbitrary bytes as a stream of frames under both
// limits, reusing the buffer as a connection does. The decoder must never
// panic, never return bytes it was not given, and never hold more than
// twice (the input plus one chunk) — a length field buys no memory.
func FuzzReadFrame(f *testing.F) {
	two, _ := AppendFrame(nil, frameFormat, []byte("meta"), MaxFrameSize)
	two, _ = AppendFrame(two, frameRecord, bytes.Repeat([]byte{1}, 300), MaxFrameSize)
	f.Add(two, false)
	f.Add(two[:len(two)-1], true)
	f.Add(header(MaxFrameSize), false)
	f.Add(header(64<<20), true)
	f.Add(append(header(2*frameChunk), make([]byte, frameChunk+1)...), true)
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF}, false)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, bus bool) {
		limit := frameLimits[0].limit
		if bus {
			limit = frameLimits[1].limit
		}
		r := bytes.NewReader(data)
		var buf []byte
		for off := 0; ; {
			_, payload, newBuf, err := ReadFrame(r, buf, limit)
			buf = newBuf
			if cap(buf) > 2*(len(data)+frameChunk) {
				t.Fatalf("buffer of %d bytes for %d bytes of input", cap(buf), len(data))
			}
			if err != nil {
				return
			}
			off += FrameHeaderLen
			if off+len(payload) > len(data) || !bytes.Equal(payload, data[off:off+len(payload)]) {
				t.Fatalf("payload of %d bytes at offset %d is not what the %d-byte stream holds", len(payload), off, len(data))
			}
			off += len(payload)
		}
	})
}
