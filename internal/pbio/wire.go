package pbio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// The connection protocol frames messages over any reliable byte stream.
// Formats are transmitted once per connection and referenced by their 8-byte
// ID afterwards — the format-caching optimization that lets NDR's
// per-message metadata cost approach zero:
//
//	frame := type(1) length(u32 BE) payload
//	type 1 (format): payload = MarshalMeta bytes
//	type 2 (record): payload = FormatID(8) || NDR record bytes
//
// Connections, record files (file.go) and the event backbone
// (internal/eventbus, which assigns its own frame types) all share the one
// header codec below: BeginFrame/EndFrame/AppendFrame build a frame in a
// single buffer so it leaves in one Write, and frameSize is the only place
// a length field read off the wire is trusted. ReadFrame and FrameReader
// never allocate the claimed length up front: a buffer grows at most
// FrameChunk past the bytes that have actually arrived.
//
// FrameReader hands out frames as slices of its chunks. A reader without a
// spare list (a subscriber's) never writes a chunk again, so a frame is the
// caller's for good. A reader given a Spares (the broker's) takes its chunks
// from that list, and a Chunk's reference count says who still holds bytes
// in it: the last Release puts it back on the list, to be read into again.
const (
	frameFormat byte = 1
	frameRecord byte = 2
)

// FrameHeaderLen is the size of the type+length header every frame starts
// with.
const FrameHeaderLen = 5

// MaxFrameSize bounds a single Writer/Reader frame; larger frames indicate
// corruption.
const MaxFrameSize = MaxRecordSize

// FrameChunk is FrameReader's chunk, the most a frame buffer grows past the
// bytes received, and the event broker's write batch.
const FrameChunk = 64 << 10

// maxSliced, the largest frame sliced from a chunk that is never reused,
// bounds the waste such a chunk keeps alive.
const maxSliced = FrameChunk / 16

// MaxChunkFrame is the largest frame a chunk from a spare list holds. A
// chunk given up because the next frame does not fit is reused once it is
// released, so the larger bound wastes nothing for long.
const MaxChunkFrame = FrameChunk / 4

// Wire protocol errors.
var (
	ErrFrameTooBig    = errors.New("pbio: frame exceeds maximum size")
	ErrUnknownFrame   = errors.New("pbio: unknown frame type")
	ErrNoSuchFormatID = errors.New("pbio: record references unknown format ID")
)

// BeginFrame appends header room for one frame to dst. The caller appends
// the payload behind it and seals the frame with EndFrame.
func BeginFrame(dst []byte) []byte {
	return append(dst, make([]byte, FrameHeaderLen)...)
}

// EndFrame fills in the header of frame — header room from BeginFrame
// followed by the payload — rejecting payloads over limit bytes.
func EndFrame(frame []byte, typ byte, limit int) error {
	n := len(frame) - FrameHeaderLen
	if n > limit {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	frame[0] = typ
	binary.BigEndian.PutUint32(frame[1:], uint32(n))
	return nil
}

// AppendFrame appends one whole frame carrying payload to dst.
func AppendFrame(dst []byte, typ byte, payload []byte, limit int) ([]byte, error) {
	if len(payload) > limit {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(payload))
	}
	at := len(dst)
	dst = append(BeginFrame(slices.Grow(dst, FrameHeaderLen+len(payload))), payload...)
	return dst, EndFrame(dst[at:], typ, limit)
}

// ReadFrame reads one frame of at most limit payload bytes from r into buf,
// growing it as needed. The payload aliases the returned buffer, which the
// caller passes back in for the next frame. io.EOF is returned verbatim only
// at a frame boundary; a stream cut inside a frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte, limit int) (typ byte, payload, newBuf []byte, err error) {
	buf = slices.Grow(buf[:0], FrameHeaderLen)[:FrameHeaderLen]
	_, err = io.ReadFull(r, buf)
	size, err := frameSize(buf, err, limit)
	if err == nil {
		buf, err = readRest(r, buf, size)
	}
	if err != nil {
		return 0, nil, buf, err
	}
	return buf[0], buf[FrameHeaderLen:], buf, nil
}

// frameSize is the size, header included, of the frame hdr starts, read
// with err, if its payload is within limit. io.EOF is passed on verbatim.
func frameSize(hdr []byte, err error, limit int) (int, error) {
	if err == io.EOF {
		return 0, err
	} else if err != nil {
		return 0, fmt.Errorf("pbio: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if uint64(n) > uint64(limit) {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	return FrameHeaderLen + int(n), nil
}

// readRest reads from r until buf holds size bytes.
func readRest(r io.Reader, buf []byte, size int) ([]byte, error) {
	for len(buf) < size {
		// Room for what is missing, but for at most a chunk more than has
		// arrived. A buffer big enough already is filled in one read.
		buf = slices.Grow(buf, min(size-len(buf), FrameChunk))
		m, err := io.ReadFull(r, buf[len(buf):min(size, cap(buf))])
		if buf = buf[:len(buf)+m]; err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, fmt.Errorf("pbio: read frame payload: %w", err)
		}
	}
	return buf, nil
}

// Chunk is a FrameChunk-sized buffer from a spare list, shared by reference
// count: whoever keeps bytes in it holds a reference, and the last Release
// puts it back on its list. Retain and Release do nothing on a nil Chunk,
// which stands for memory no list owns.
type Chunk struct {
	buf    []byte
	refs   atomic.Int32
	spares *Spares
}

// Bytes returns the chunk's FrameChunk bytes.
func (c *Chunk) Bytes() []byte { return c.buf }

// Retain takes one more reference to c.
func (c *Chunk) Retain() {
	if c != nil {
		c.refs.Add(1)
	}
}

// Release gives back one reference to c. The last one returns c to its
// spare list, or leaves it to the collector when the list is full.
func (c *Chunk) Release() {
	if c == nil {
		return
	}
	switch n := c.refs.Add(-1); {
	case n == 0:
		c.spares.put(c)
	case n < 0:
		panic("pbio: chunk released more often than retained")
	}
}

// Spares is a bounded list of chunks free to be written again. It is safe
// for concurrent use.
type Spares struct {
	free     chan *Chunk // buffered to the list's capacity
	returned func([]byte)
}

// NewSpares returns an empty spare list that keeps at most capacity chunks.
// returned, unless nil, is called with each chunk's bytes as its last
// reference is released, before the chunk can be reused.
func NewSpares(capacity int, returned func(chunk []byte)) *Spares {
	return &Spares{free: make(chan *Chunk, capacity), returned: returned}
}

// Get returns a chunk holding one reference, the caller's: a spare, or a new
// chunk when the list is empty.
func (s *Spares) Get() *Chunk {
	var c *Chunk
	select {
	case c = <-s.free:
	default:
		c = &Chunk{buf: make([]byte, FrameChunk), spares: s}
	}
	c.refs.Store(1)
	return c
}

func (s *Spares) put(c *Chunk) {
	if s.returned != nil {
		s.returned(c.buf)
	}
	select {
	case s.free <- c:
	default:
	}
}

// FrameReader reads frames under ReadFrame's rules into FrameChunk-sized
// chunks, as many as each read brings. A frame up to its slice bound is
// handed out as a full-capacity slice of a chunk, header included, and a
// larger one as a copy, which is the caller's.
//
// Without a spare list the bound is maxSliced, and a chunk is never written
// again once a frame has been sliced from it: the frame is the caller's, and
// keeps the chunk alive. With one the bound is MaxChunkFrame, chunks come
// from the list, and Next returns the chunk a frame lies in. The frame is
// valid until the next call of Next; a caller that keeps it longer takes a
// reference with Retain and gives it back with Release.
type FrameReader struct {
	r              io.Reader
	limit, sliced  int
	spares         *Spares
	c              *Chunk // chunk's, holding the reader's reference, when it came from spares
	chunk          []byte
	held, off, end int // chunk[:held] is handed out, chunk[off:end] buffered
}

// NewFrameReader returns a FrameReader over r for payloads of at most limit,
// taking its chunks from spares unless that is nil.
func NewFrameReader(r io.Reader, limit int, spares *Spares) *FrameReader {
	fr := &FrameReader{r: r, limit: limit, sliced: maxSliced, spares: spares}
	if spares != nil {
		fr.sliced = MaxChunkFrame
	}
	return fr
}

// Next returns the next frame, or io.EOF at a frame boundary, with the chunk
// it is a slice of: nil for a copy, and always without a spare list.
func (fr *FrameReader) Next() ([]byte, *Chunk, error) {
	err := fr.fill(FrameHeaderLen)
	size, err := frameSize(fr.chunk[fr.off:], err, fr.limit)
	if err != nil {
		return nil, nil, err
	}
	if size > fr.sliced { // the bytes buffered, then the rest read straight in
		have := min(fr.end-fr.off, size)
		frame := make([]byte, have, min(size, have+FrameChunk))
		fr.off += copy(frame, fr.chunk[fr.off:])
		if frame, err = readRest(fr.r, frame, size); err != nil {
			return nil, nil, err
		}
		return slices.Clip(frame), nil, nil
	}
	if err := fr.fill(size); err != nil {
		return nil, nil, fmt.Errorf("pbio: read frame payload: %w", err)
	}
	frame := fr.chunk[fr.off : fr.off+size : fr.off+size]
	fr.off, fr.held = fr.off+size, fr.off+size
	return frame, fr.c, nil
}

// Release gives back the reader's reference to its chunk. The reader is not
// used after.
func (fr *FrameReader) Release() {
	fr.c.Release()
	fr.c, fr.chunk = nil, nil
}

// fill reads until need bytes (at most the slice bound) are buffered. Bytes
// copied out are reused once nothing is buffered behind them; buffered bytes
// with no room behind them move to a fresh chunk.
func (fr *FrameReader) fill(need int) error {
	if fr.off == fr.end {
		fr.off, fr.end = fr.held, fr.held
	}
	if len(fr.chunk)-fr.off < need {
		var c *Chunk
		var next []byte
		if fr.spares != nil {
			c = fr.spares.Get()
			next = c.buf
		} else {
			next = make([]byte, FrameChunk)
		}
		fr.end = copy(next, fr.chunk[fr.off:fr.end])
		fr.c.Release() // only now: the chunk may be written again at once
		fr.chunk, fr.c, fr.off, fr.held = next, c, 0, 0
	}
	m, err := io.ReadAtLeast(fr.r, fr.chunk[fr.end:], need-(fr.end-fr.off))
	if fr.end += m; err == io.EOF && fr.end > fr.off {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Writer sends formats and records over a byte stream. It remembers which
// format IDs the peer has already seen so metadata travels at most once.
// Writer is safe for concurrent use.
type Writer struct {
	mu      sync.Mutex
	w       io.Writer
	sent    map[FormatID]bool
	scratch []byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, sent: make(map[FormatID]bool)}
}

// WriteRecord sends one encoded record of format f, preceding it with the
// format's metadata if this connection has not carried it yet.
func (w *Writer) WriteRecord(f *Format, record []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeFormatLocked(f); err != nil {
		return err
	}
	return w.writeFrame(frameRecord, f.ID[:], record)
}

// WriteFormat proactively sends a format's metadata (idempotent per
// connection).
func (w *Writer) WriteFormat(f *Format) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeFormatLocked(f)
}

func (w *Writer) writeFormatLocked(f *Format) error {
	if w.sent[f.ID] {
		return nil
	}
	if err := w.writeFrame(frameFormat, nil, MarshalMeta(f)); err != nil {
		return err
	}
	w.sent[f.ID] = true
	return nil
}

func (w *Writer) writeFrame(typ byte, prefix, payload []byte) error {
	need := FrameHeaderLen + len(prefix) + len(payload)
	if need > FrameHeaderLen+MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, need-FrameHeaderLen)
	}
	if cap(w.scratch) < need {
		w.scratch = make([]byte, 0, need*2)
	}
	buf := BeginFrame(w.scratch[:0])
	buf = append(buf, prefix...)
	buf = append(buf, payload...)
	w.scratch = buf
	if err := EndFrame(buf, typ, MaxFrameSize); err != nil {
		return err
	}
	if _, err := w.w.Write(buf); err != nil {
		return fmt.Errorf("pbio: write frame: %w", err)
	}
	return nil
}

// Reader receives formats and records from a byte stream, adopting incoming
// format metadata into a Context so records can be decoded. Reader is not
// safe for concurrent use (a stream has one reading position).
type Reader struct {
	r   io.Reader
	ctx *Context
	buf []byte
}

// NewReader returns a Reader over r that adopts formats into ctx.
func NewReader(r io.Reader, ctx *Context) *Reader {
	return &Reader{r: r, ctx: ctx}
}

// ReadRecord reads frames until a record arrives, returning the record's
// format and its NDR bytes. The returned slice is only valid until the next
// call. io.EOF is returned verbatim at a clean end of stream.
func (r *Reader) ReadRecord() (*Format, []byte, error) {
	for {
		typ, payload, buf, err := ReadFrame(r.r, r.buf, MaxFrameSize)
		r.buf = buf
		if err != nil {
			return nil, nil, err
		}
		switch typ {
		case frameFormat:
			f, err := UnmarshalMeta(payload)
			if err != nil {
				return nil, nil, err
			}
			if _, err := r.ctx.Adopt(f); err != nil {
				return nil, nil, err
			}
		case frameRecord:
			if len(payload) < len(FormatID{}) {
				return nil, nil, fmt.Errorf("%w: record frame of %d bytes", ErrTruncated, len(payload))
			}
			var id FormatID
			copy(id[:], payload)
			f, ok := r.ctx.LookupID(id)
			if !ok {
				return nil, nil, fmt.Errorf("%w: %s", ErrNoSuchFormatID, id)
			}
			return f, payload[len(id):], nil
		default:
			return nil, nil, fmt.Errorf("%w: %d", ErrUnknownFrame, typ)
		}
	}
}
