package pbio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
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
// Each bufio source resets one reader of its own for every stream it wraps,
// so a source serves one stream at a time: the fuzzer runs every source on
// every input, and a fresh buffer per stream was most of what a run
// allocated.
var frameSources = func() []frameSource {
	sources := []frameSource{{"direct", func(r io.Reader) io.Reader { return r }, false}}
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
			br := bufio.NewReaderSize(nil, size)
			sources = append(sources, frameSource{
				fmt.Sprintf("bufio%d/%s", size, split.name),
				func(r io.Reader) io.Reader { br.Reset(split.wrap(r)); return br },
				split.name == "onebyte",
			})
		}
	}
	return sources
}()

type frameSource struct {
	name    string
	wrap    func(io.Reader) io.Reader
	oneByte bool // a read per byte: the slowest source by far
}

// frameReaders are the readers of a stream of frames: ReadFrame over one
// reused buffer, as Reader and record files use it, and a FrameReader, as
// the event backbone's receive loops do: without a spare list, as a
// subscriber reads, and with one, as the broker does, both keeping every
// frame (a queued frame holds a reference) and letting each go at once, with
// every chunk that goes back to the list poisoned. Each call of next returns
// a whole frame, header included; held is the memory the reader keeps for
// itself, which must stay within bound of an input of n bytes: a length
// field buys no memory. A reader that keeps its frames must find every one
// unchanged at the end; done then gives back every reference the reader and
// its caller hold, so the chunks go back to the list for the next stream.
var frameReaders = []struct {
	name  string
	open  func(r io.Reader, limit int) (next func() ([]byte, error), held func() int, done func())
	bound func(n int) int
	keeps bool
}{
	{"ReadFrame", func(r io.Reader, limit int) (func() ([]byte, error), func() int, func()) {
		var buf []byte
		return func() ([]byte, error) {
				_, _, newBuf, err := ReadFrame(r, buf, limit)
				if buf = newBuf; err != nil {
					return nil, err
				}
				return buf, nil // the whole frame: its payload is buf[FrameHeaderLen:]
			},
			func() int { return cap(buf) },
			func() {}
	}, func(n int) int { return 2 * (n + FrameChunk) }, false},
	// The chunk is held, and the frames copied out of it were the input's.
	{"FrameReader", chunkReader(nil, false), func(n int) int { return n + FrameChunk }, true},
	{"FrameReader/kept", chunkReader(poisonedSpares, true), func(n int) int { return n + FrameChunk }, true},
	{"FrameReader/recycled", chunkReader(poisonedSpares, false), func(n int) int { return n + FrameChunk }, false},
}

// poisonedSpares is a spare list that overwrites each chunk put back on it.
var poisonedSpares = NewSpares(2, func(chunk []byte) {
	chunk[0] = 0xA5
	for n := 1; n < len(chunk); n *= 2 {
		copy(chunk[n:], chunk[:n])
	}
})

// chunkReader opens a FrameReader over spares, whose frames' chunks are
// retained when keep is set.
func chunkReader(spares *Spares, keep bool) func(r io.Reader, limit int) (func() ([]byte, error), func() int, func()) {
	return func(r io.Reader, limit int) (func() ([]byte, error), func() int, func()) {
		fr := NewFrameReader(r, limit, spares)
		copied := 0
		var kept []*Chunk
		return func() ([]byte, error) {
				frame, c, err := fr.Next()
				if len(frame) > fr.sliced {
					copied += cap(frame)
				}
				if keep && c != nil {
					c.Retain()
					kept = append(kept, c)
				}
				return frame, err
			},
			func() int { return cap(fr.chunk) + copied },
			func() {
				for _, c := range kept {
					c.Release()
				}
				fr.Release()
			}
	}
}

// header returns a frame header of type 2 claiming n payload bytes.
func header(n int) []byte {
	return binary.BigEndian.AppendUint32([]byte{frameRecord}, uint32(n))
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{7}, 3*FrameChunk+11), []byte("tail")}
	for i, p := range payloads {
		var err error
		if stream, err = AppendFrame(stream, byte(i+1), p, MaxFrameSize); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range frameSources {
		t.Run(src.name, func(t *testing.T) {
			for _, rd := range frameReaders {
				next, _, _ := rd.open(src.wrap(bytes.NewReader(stream)), MaxFrameSize)
				for i, want := range payloads {
					frame, err := next()
					if err != nil {
						t.Fatalf("%s, frame %d: %v", rd.name, i, err)
					}
					if typ, got := frame[0], frame[FrameHeaderLen:]; typ != byte(i+1) || !bytes.Equal(got, want) {
						t.Fatalf("%s, frame %d: type %d, %d bytes; want type %d, %d bytes", rd.name, i, typ, len(got), i+1, len(want))
					}
				}
				if _, err := next(); err != io.EOF {
					t.Fatalf("%s: at the frame boundary err = %v, want io.EOF verbatim", rd.name, err)
				}
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
				for _, rd := range frameReaders {
					next, _, _ := rd.open(src.wrap(bytes.NewReader(hdr)), tc.limit) // a source's own buffer is not the reader's doing
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					_, err := next()
					runtime.ReadMemStats(&after)
					if !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Errorf("%s, %s: err = %v, want io.ErrUnexpectedEOF", src.name, rd.name, err)
					}
					if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
						t.Errorf("%s: a bare header claiming %d bytes made %s allocate %d bytes, want < 1 MiB", src.name, tc.limit, rd.name, got)
					}
				}
			}
			for _, rd := range frameReaders {
				next, _, _ := rd.open(bytes.NewReader(header(tc.limit+1)), tc.limit)
				if _, err := next(); !errors.Is(err, ErrFrameTooBig) {
					t.Errorf("%s: claim one over the limit: err = %v, want ErrFrameTooBig", rd.name, err)
				}
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

// oneByteMax bounds the fuzzed inputs read a byte at a time, so that the
// fuzzer's time goes on many inputs rather than on the reads of a few large
// ones.
const oneByteMax = 4 << 10

// checkFrameStream reads data as a stream of frames under the limit bus
// picks, from every frame source (the one-byte ones only when oneByte is
// set), with every reader. Neither may panic, return bytes it was not
// given, hold more than its bound — a length field buys no memory — or
// report io.EOF anywhere but where a frame ends; and whatever the reader,
// however the stream is split underneath, what comes out is what ReadFrame
// returns reading the stream directly: the same frames, the same error. The
// frames a FrameReader hands out are the caller's, or with a spare list the
// holder's of a reference: once the stream is exhausted every one still
// holds its input bytes, so the reader never wrote over a byte it had
// handed out, and no chunk still referenced went back to the list.
func checkFrameStream(t *testing.T, data []byte, bus, oneByte bool) {
	t.Helper()
	limit := frameLimits[0].limit
	if bus {
		limit = frameLimits[1].limit
	}
	var direct string // the direct read's frames and final error, to compare the others with
	for _, src := range frameSources {
		if src.oneByte && !oneByte {
			continue
		}
		for _, rd := range frameReaders {
			name := src.name + "/" + rd.name
			next, held, done := rd.open(src.wrap(bytes.NewReader(data)), limit)
			var story []byte
			var frames [][]byte
			off := 0
			for {
				frame, err := next()
				if n := held(); n > rd.bound(len(data)) {
					t.Fatalf("%s: holds %d bytes for %d bytes of input", name, n, len(data))
				}
				if err != nil {
					if err == io.EOF && off != len(data) {
						t.Fatalf("%s: io.EOF at offset %d of a %d-byte stream, inside a frame", name, off, len(data))
					}
					story = fmt.Appendf(story, "%v", err)
					break
				}
				if off+len(frame) > len(data) || !bytes.Equal(frame, data[off:off+len(frame)]) {
					t.Fatalf("%s: frame of %d bytes at offset %d is not what the %d-byte stream holds", name, len(frame), off, len(data))
				}
				off += len(frame)
				frames = append(frames, frame)
				story = fmt.Appendf(story, "%d:%d ", frame[0], len(frame)-FrameHeaderLen)
			}
			if name == "direct/ReadFrame" {
				direct = string(story)
			} else if string(story) != direct {
				t.Fatalf("%s read %q, the direct read %q", name, story, direct)
			}
			if rd.keeps {
				off = 0
				for i, frame := range frames {
					if !bytes.Equal(frame, data[off:off+len(frame)]) {
						t.Fatalf("%s: frame %d changed after it was handed out", name, i)
					}
					if cap(frame) != len(frame) {
						t.Fatalf("%s: frame %d has %d bytes of room behind it: an append would write into the reader's chunk", name, i, cap(frame)-len(frame))
					}
					off += len(frame)
				}
			}
			done()
		}
	}
}

// FuzzReadFrame runs checkFrameStream on arbitrary bytes. Its seeds are a
// few hundred bytes at most, and only inputs of up to oneByteMax are read a
// byte at a time: a large input makes every run, and the minimizing of
// every input it finds, slow. TestReadFrameLargeStreams runs the streams
// that sit on the readers' size boundaries.
func FuzzReadFrame(f *testing.F) {
	two, _ := AppendFrame(nil, frameFormat, []byte("meta"), MaxFrameSize)
	two, _ = AppendFrame(two, frameRecord, bytes.Repeat([]byte{1}, 30), MaxFrameSize)
	f.Add(two, false)
	f.Add(two[:len(two)-1], true)
	f.Add(header(MaxFrameSize), false)
	f.Add(header(64<<20), true)
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF}, false)
	f.Add([]byte{}, false)
	// A length one past the smaller limit, under each.
	f.Add(append(header(MaxFrameSize+1), 0), false)
	f.Add(append(header(MaxFrameSize+1), 0), true)
	f.Add(two, true)
	f.Add(header(0), false)                        // an empty payload
	f.Add([]byte{2, 0, 0}, true)                   // cut inside the header
	f.Add(append(header(0), 3, 0, 0, 0, 1), false) // an empty frame, then one cut short
	var tiny []byte
	for i := 0; i < 20; i++ {
		tiny, _ = AppendFrame(tiny, byte(i), []byte{byte(i)}, MaxFrameSize)
	}
	f.Add(tiny, false)
	f.Add(tiny, true)
	f.Fuzz(func(t *testing.T, data []byte, bus bool) {
		checkFrameStream(t, data, bus, len(data) <= oneByteMax)
	})
}

// framesAround returns a frame of size bytes, header included, and a small
// one behind it.
func framesAround(size int) []byte {
	frames, _ := AppendFrame(nil, frameRecord, make([]byte, size-FrameHeaderLen), MaxFrameSize)
	frames, _ = AppendFrame(frames, frameFormat, []byte("behind"), MaxFrameSize)
	return frames
}

// TestReadFrameLargeStreams runs checkFrameStream, one-byte sources and
// all, on the streams too large to seed the fuzzer with: the largest frame
// a reader slices from a chunk, without a spare list and with one, and one
// byte either side of each, under both limits; a frame of FrameChunk+1
// bytes cut short; and frames of 1000 bytes, one of them across the end of
// the first chunk.
func TestReadFrameLargeStreams(t *testing.T) {
	var straddle []byte
	for len(straddle) < FrameChunk+1000 {
		straddle, _ = AppendFrame(straddle, frameRecord, make([]byte, 1000-FrameHeaderLen), MaxFrameSize)
	}
	for _, tc := range []struct {
		name string
		data []byte
		bus  bool
	}{
		{"FrameChunk+1 cut", append(header(2*FrameChunk), make([]byte, FrameChunk+1)...), true},
		{"straddle", straddle, false},
	} {
		t.Run(tc.name, func(t *testing.T) { checkFrameStream(t, tc.data, tc.bus, true) })
	}
	for _, size := range []int{maxSliced - 1, maxSliced, maxSliced + 1, MaxChunkFrame - 1, MaxChunkFrame, MaxChunkFrame + 1} {
		for _, bus := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/bus=%v", size, bus), func(t *testing.T) { checkFrameStream(t, framesAround(size), bus, true) })
		}
	}
}

// TestFrameReaderSlicesSmallFrames pins the chunked reader's cost for small
// frames at its chunks: 10,000 frames of 118 bytes share 19 of them.
func TestFrameReaderSlicesSmallFrames(t *testing.T) {
	const frames, size = 10000, 118
	stream := frameRun(t, frames, size)
	allocs := readAllocs(t, stream, frames, nil)
	t.Logf("%d frames of %d bytes: %.0f allocations", frames, size, allocs)
	if want := (frames*size+FrameChunk-1)/FrameChunk + 1; allocs > float64(want) {
		t.Errorf("%d frames of %d bytes: %.0f allocations, want at most %d", frames, size, allocs, want)
	}
}

// TestFrameReaderCopiesLargeFrames: a frame over maxSliced costs the one
// allocation it is copied into, and the chunk is reused under the copies.
func TestFrameReaderCopiesLargeFrames(t *testing.T) {
	const frames, size = 1000, 10220
	allocs := readAllocs(t, frameRun(t, frames, size), frames, nil)
	t.Logf("%d frames of %d bytes: %.0f allocations", frames, size, allocs)
	if allocs < frames || allocs > frames+1 {
		t.Errorf("%d frames of %d bytes: %.0f allocations, want %d plus at most one chunk", frames, size, allocs, frames)
	}
}

// TestFrameReaderRecyclesChunks: with a spare list, a reader whose frames
// are let go as they come takes each next chunk from the list and puts the
// one before back, so once the list is warm reading costs the reader itself
// and nothing per frame: small frames, frames a reader without the list
// copies, and the largest it slices.
func TestFrameReaderRecyclesChunks(t *testing.T) {
	const frames = 2000
	spares := NewSpares(2, nil)
	for _, size := range []int{118, 10220, MaxChunkFrame} {
		allocs := readAllocs(t, frameRun(t, frames, size), frames, spares)
		t.Logf("%d frames of %d bytes: %.0f allocations", frames, size, allocs)
		if allocs > 1 {
			t.Errorf("%d frames of %d bytes: %.0f allocations, want the reader's one", frames, size, allocs)
		}
	}
}

// frameRun returns n frames of size bytes each, header included.
func frameRun(t *testing.T, n, size int) []byte {
	t.Helper()
	var stream []byte
	for i := 0; i < n; i++ {
		var err error
		if stream, err = AppendFrame(stream, frameRecord, make([]byte, size-FrameHeaderLen), MaxFrameSize); err != nil {
			t.Fatal(err)
		}
	}
	return stream
}

// readAllocs is the allocations a FrameReader over spares makes reading the
// n frames of stream, after one read that warms the list, with the collector
// off so that nothing it starts is counted.
func readAllocs(t *testing.T, stream []byte, n int, spares *Spares) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src := bytes.NewReader(stream)
	return testing.AllocsPerRun(1, func() {
		src.Reset(stream)
		fr := NewFrameReader(src, MaxFrameSize, spares)
		defer fr.Release()
		for i := 0; i < n; i++ {
			if _, _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
