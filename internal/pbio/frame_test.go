package pbio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

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

// frameSources are the ways a stream reaches ReadFrame: straight from the
// reader, as Reader and record files do, and through a bufio.Reader, as the
// event backbone's receive loops do — at the backbone's size and at bufio's
// smallest, where every frame is larger than the buffer and bypasses it — over
// readers that split the stream every way a socket can: a byte at a time,
// half of what is asked for, and the last bytes arriving with the error.
var frameSources = func() []frameSource {
	sources := []frameSource{{"direct", func(r io.Reader) io.Reader { return r }}}
	splits := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"onebyte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"dataerr", iotest.DataErrReader},
	}
	for _, size := range []int{16, 16 << 10} {
		for _, split := range splits {
			sources = append(sources, frameSource{
				fmt.Sprintf("bufio%d/%s", size, split.name),
				func(r io.Reader) io.Reader { return bufio.NewReaderSize(split.wrap(r), size) },
			})
		}
	}
	return sources
}()

type frameSource struct {
	name string
	wrap func(io.Reader) io.Reader
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
	for _, src := range frameSources {
		t.Run(src.name, func(t *testing.T) {
			r := src.wrap(bytes.NewReader(stream))
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
		})
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
			for _, src := range frameSources {
				r := src.wrap(bytes.NewReader(hdr)) // a source's own buffer is not ReadFrame's doing
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, _, _, err := ReadFrame(r, nil, tc.limit)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", src.name, err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
					t.Errorf("%s: a bare header claiming %d bytes made ReadFrame allocate %d bytes, want < 1 MiB", src.name, tc.limit, got)
				}
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
// limits, reusing the buffer as a connection does, from every frame source.
// The decoder must never panic, never return bytes it was not given, never
// hold more than twice (the input plus one chunk) — a length field buys no
// memory — and report io.EOF only where a frame ends; and what it returns
// through a buffered reader, however the stream is split underneath, is what
// it returns reading the stream directly: the same frames, the same error.
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
		var direct string // the direct read's frames and final error, to compare the others with
		for _, src := range frameSources {
			r := src.wrap(bytes.NewReader(data))
			var buf []byte
			var story []byte
			for off := 0; ; {
				typ, payload, newBuf, err := ReadFrame(r, buf, limit)
				buf = newBuf
				if cap(buf) > 2*(len(data)+frameChunk) {
					t.Fatalf("%s: buffer of %d bytes for %d bytes of input", src.name, cap(buf), len(data))
				}
				if err != nil {
					if err == io.EOF && off != len(data) {
						t.Fatalf("%s: io.EOF at offset %d of a %d-byte stream, inside a frame", src.name, off, len(data))
					}
					story = fmt.Appendf(story, "%v", err)
					break
				}
				off += FrameHeaderLen
				if off+len(payload) > len(data) || !bytes.Equal(payload, data[off:off+len(payload)]) {
					t.Fatalf("%s: payload of %d bytes at offset %d is not what the %d-byte stream holds", src.name, len(payload), off, len(data))
				}
				off += len(payload)
				story = fmt.Appendf(story, "%d:%d ", typ, len(payload))
			}
			if src.name == "direct" {
				direct = string(story)
			} else if string(story) != direct {
				t.Fatalf("%s read %q, the direct read %q", src.name, story, direct)
			}
		}
	})
}
