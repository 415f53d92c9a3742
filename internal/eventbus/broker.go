package eventbus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmeta/internal/dcg"
	"openmeta/internal/flight"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// Broker is the event backbone: it accepts publisher and subscriber
// connections, tracks which streams exist and who subscribes to them, and
// routes published records — without decoding them — to every subscriber,
// preceding each record with its format metadata the first time that format
// travels to that subscriber.
type Broker struct {
	ln            net.Listener
	log           *slog.Logger
	wg            sync.WaitGroup
	closed        chan struct{}
	queueDepth    int
	writeDeadline time.Duration

	obs    obsv.Scope
	m      brokerMetrics
	tracer *trace.Tracer
	rec    *flight.Recorder

	mu      sync.Mutex // guards conns, streams and scoped
	conns   map[*brokerConn]bool
	streams map[string]*stream

	// plans memoizes conversion programs for format scoping (§4.4 of the
	// paper: exposing "slices" of a stream to particular subscribers).
	plans  *dcg.Cache
	scoped map[scopeKey]*scopedFormat
}

// brokerMetrics bundles the broker-wide instruments. Brokers sharing a
// registry (the default unless WithObserver is given) share counters.
type brokerMetrics struct {
	published   *obsv.Counter // records accepted from publishers
	delivered   *obsv.Counter // event frames enqueued to subscribers
	dropped     *obsv.Counter // frames discarded on full subscriber queues
	formatsSent *obsv.Counter // format-metadata frames sent to subscribers
	slowStalls  *obsv.Counter // must-send stalls on slow subscribers

	// routeNS times publish-to-fanout routing (parse, stream bookkeeping,
	// every subscriber delivery). Traced publishes stamp their TraceID onto
	// the bucket as its exemplar, so a routing p99 spike names a real trace.
	routeNS *obsv.Histogram // route_ns

	// queueWaitNS times enqueue→wire per outbound frame across all
	// subscribers, exemplar-stamped for traced frames; queueWaitVec splits
	// the same measurement per subscriber connection (label "conn"), so one
	// stalled subscriber is distinguishable from fleet-wide backpressure.
	// Connection ids churn with reconnects; the registry's label-children
	// bound clamps runaway cardinality onto the overflow child.
	queueWaitNS  *obsv.Histogram    // queue_wait_ns
	queueWaitVec *obsv.HistogramVec // subscriber.queue_wait_ns{conn}

	// Labeled per-stream × per-format wire accounting. Children are resolved
	// once per (stream, format) pair when the pair first appears (see
	// stream.wireFor), so the routing hot path only touches counters.
	wireRecVec  *obsv.CounterVec // wire.records{stream,format}: records published
	wireByteVec *obsv.CounterVec // wire.bytes{stream,format}: record bytes published
	delRecVec   *obsv.CounterVec // wire.delivered.records{stream,format}
	delByteVec  *obsv.CounterVec // wire.delivered.bytes{stream,format}
	dropRecVec  *obsv.CounterVec // wire.dropped.records{stream,format}: dropped on full queues
	metaByteVec *obsv.CounterVec // wire.meta.bytes{stream,format}: metadata bytes sent
}

func newBrokerMetrics(s obsv.Scope) brokerMetrics {
	return brokerMetrics{
		published:    s.Counter("published"),
		delivered:    s.Counter("delivered"),
		dropped:      s.Counter("dropped"),
		formatsSent:  s.Counter("formats_sent"),
		slowStalls:   s.Counter("slow_subscriber_stalls"),
		routeNS:      s.Histogram("route_ns"),
		queueWaitNS:  s.Histogram("queue_wait_ns"),
		queueWaitVec: s.HistogramVec("subscriber.queue_wait_ns", "conn"),
		wireRecVec:   s.CounterVec("wire.records", "stream", "format"),
		wireByteVec:  s.CounterVec("wire.bytes", "stream", "format"),
		delRecVec:    s.CounterVec("wire.delivered.records", "stream", "format"),
		delByteVec:   s.CounterVec("wire.delivered.bytes", "stream", "format"),
		dropRecVec:   s.CounterVec("wire.dropped.records", "stream", "format"),
		metaByteVec:  s.CounterVec("wire.meta.bytes", "stream", "format"),
	}
}

// Package-level default instruments, created at init so the eventbus.*
// metric names exist (zero-valued) in openmeta.Stats() from process start.
var defaultBrokerMetrics = newBrokerMetrics(obsv.Default().Scope("eventbus"))

// scopeKey identifies one slice of one concrete format.
type scopeKey struct {
	id    pbio.FormatID
	scope string // canonical comma-joined field list
}

// scopedFormat pairs a derived subset format with the conversion plan that
// projects full records onto it.
type scopedFormat struct {
	format *pbio.Format
	meta   []byte
	plan   *dcg.Plan
}

type stream struct {
	name string
	// formats holds the metadata of every format seen on the stream, in
	// arrival order, so late subscribers receive them on subscription.
	formats []formatMeta
	subs    map[*brokerConn]bool

	// wire resolves the labeled (stream, format) counter children once per
	// format seen on the stream. Guarded by the broker mutex.
	wire map[pbio.FormatID]*streamWire
}

// streamWire carries one (stream, format) pair's resolved labeled counters
// plus the names format_send flight events carry, so the fanout hot path
// touches no maps or label vectors.
type streamWire struct {
	stream string
	fname  string

	recs      *obsv.Counter
	bytes     *obsv.Counter
	delRecs   *obsv.Counter
	delBytes  *obsv.Counter
	dropRecs  *obsv.Counter
	metaBytes *obsv.Counter
}

// wireFor returns (resolving and memoizing on first use) the pair's counters.
// Caller holds the broker mutex.
func (st *stream) wireFor(m *brokerMetrics, fm formatMeta) *streamWire {
	if w, ok := st.wire[fm.id]; ok {
		return w
	}
	name, err := pbio.MetaRootName(fm.meta)
	if err != nil || name == "" {
		name = fm.id.String() // undecodable metadata: fall back to the hex id
	}
	w := &streamWire{
		stream:    st.name,
		fname:     name,
		recs:      m.wireRecVec.With(st.name, name),
		bytes:     m.wireByteVec.With(st.name, name),
		delRecs:   m.delRecVec.With(st.name, name),
		delBytes:  m.delByteVec.With(st.name, name),
		dropRecs:  m.dropRecVec.With(st.name, name),
		metaBytes: m.metaByteVec.With(st.name, name),
	}
	st.wire[fm.id] = w
	return w
}

// fid64 renders a format ID as the uint64 flight events and /debug/flight
// filters use.
func fid64(id pbio.FormatID) uint64 { return binary.BigEndian.Uint64(id[:]) }

type formatMeta struct {
	id   pbio.FormatID
	meta []byte
}

type brokerConn struct {
	conn net.Conn
	// id is the process-unique connection id flight events carry, allocated
	// from the same sequence clients use so /debug/flight never aliases.
	id uint64

	// out is the bounded outbound queue; a dedicated writer goroutine
	// drains it so one slow subscriber cannot stall publishers. Event
	// frames are dropped (and counted in the broker's obsv registry) when
	// the queue is full; format frames are never dropped, because later
	// records are undecodable without them.
	out        chan outFrame
	outClose   chan struct{} // closed when the connection is being torn down
	writerDone chan struct{} // closed when the writer goroutine has exited
	dropped    *obsv.Counter // broker-wide drop counter (persists past the conn)
	// batch is where the writer goroutine gathers frames that were queued
	// together so they leave in one Write: frameChunk bytes, allocated the
	// first time two frames are found queued, never grown. Only the writer
	// goroutine touches it.
	batch []byte

	// caps holds the capabilities negotiated in the connection's hello
	// exchange (0 until one happens). Written by the connection's reader
	// goroutine, read by publishers' fanout goroutines.
	caps atomic.Uint32

	wmu sync.Mutex // guards sentFormats ordering decisions

	// sentFormats tracks which format IDs this (subscriber) connection has
	// already received metadata for.
	sentFormats map[pbio.FormatID]bool
	// knownFormats maps IDs announced by this (publisher) connection.
	knownFormats map[pbio.FormatID][]byte
	// scopes maps stream name to the field slice this subscriber may see
	// (nil = the full format).
	scopes map[string][]string

	// queueWait is this connection's child of the broker's
	// subscriber.queue_wait_ns vec, resolved once at accept so the writer
	// loop's dequeue path never touches the label map.
	queueWait *obsv.Histogram
}

// outFrame is one queued outbound frame: the complete wire image (header
// and payload in one buffer owned by the queue, so the writer issues a
// single Write) plus what the dequeue side observes.
type outFrame struct {
	wire []byte
	// enq stamps when the frame entered the queue; the writer loop turns it
	// into the enqueue→wire queue-wait observation at dequeue.
	enq time.Time
	// tid/parent/stream carry a traced event's context so the dequeue can
	// record a retroactive broker.queue span (zero tid = untraced frame).
	tid    trace.TraceID
	parent trace.SpanID
	stream string
}

// mustSendStall is how long a frame that may not be dropped waits for queue
// space before its subscriber is declared too slow.
const mustSendStall = 5 * time.Second

// outQueueDepth is the default per-subscriber backlog bound (override with
// WithQueueDepth). At 1 KB records this is a quarter-megabyte of tolerated
// lag before events drop.
const outQueueDepth = 256

// BrokerOption configures a Broker.
type BrokerOption func(*Broker)

// WithSlog directs broker diagnostics to l (default: slog.Default()). A
// component=eventbus.broker attribute is appended either way.
func WithSlog(l *slog.Logger) BrokerOption {
	return func(b *Broker) {
		if l != nil {
			b.log = l
		}
	}
}

// WithFlightRecorder directs the broker's protocol events (connection churn,
// hello outcomes, format metadata, slow-subscriber stalls, errors) into r
// instead of the process-default recorder served at /debug/flight.
func WithFlightRecorder(r *flight.Recorder) BrokerOption {
	return func(b *Broker) {
		if r != nil {
			b.rec = r
		}
	}
}

// WithQueueDepth bounds each subscriber's outbound frame queue to n frames
// (default 256). Smaller queues drop sooner under slow consumers; larger
// queues tolerate more lag at the cost of memory.
func WithQueueDepth(n int) BrokerOption {
	return func(b *Broker) {
		if n > 0 {
			b.queueDepth = n
		}
	}
}

// WithWriteDeadline bounds how long the broker spends flushing a closing
// connection's queued frames (default 2s). Shorter deadlines free writer
// goroutines faster under churn; longer ones give slow peers more chance to
// receive final error frames.
func WithWriteDeadline(d time.Duration) BrokerOption {
	return func(b *Broker) {
		if d > 0 {
			b.writeDeadline = d
		}
	}
}

// WithObserver directs the broker's metrics (published/delivered/dropped,
// per-stream × per-format wire counters, queue depth, slow-subscriber
// stalls) into r instead of the process default registry.
func WithObserver(r *obsv.Registry) BrokerOption {
	return func(b *Broker) {
		b.obs = r.Scope("eventbus")
		b.m = newBrokerMetrics(b.obs)
	}
}

// WithPlanCache substitutes the conversion-plan cache used for format
// scoping — share one cache across brokers, or bound it with
// dcg.WithMaxEntries.
func WithPlanCache(c *dcg.Cache) BrokerOption {
	return func(b *Broker) {
		if c != nil {
			b.plans = c
		}
	}
}

// WithTracer directs the broker's spans (broker.route, dcg.compile,
// dcg.convert) into t instead of the process default tracer. Spans are only
// recorded for records whose publisher sampled them and while t is enabled.
func WithTracer(t *trace.Tracer) BrokerOption {
	return func(b *Broker) {
		if t != nil {
			b.tracer = t
		}
	}
}

// NewBroker starts a broker on the given listener. The broker owns the
// listener and closes it on Close.
func NewBroker(ln net.Listener, opts ...BrokerOption) *Broker {
	b := &Broker{
		ln:            ln,
		log:           slog.Default(),
		closed:        make(chan struct{}),
		queueDepth:    outQueueDepth,
		writeDeadline: 2 * time.Second,
		obs:           obsv.Default().Scope("eventbus"),
		m:             defaultBrokerMetrics,
		tracer:        trace.Default(),
		rec:           flight.Default(),
		conns:         make(map[*brokerConn]bool),
		streams:       make(map[string]*stream),
		plans:         dcg.NewCache(),
		scoped:        make(map[scopeKey]*scopedFormat),
	}
	for _, opt := range opts {
		opt(b)
	}
	b.log = b.log.With("component", "eventbus.broker")
	// Queue depth is observable at snapshot time; with a shared registry the
	// most recent broker wins the name, which is the common one-broker case.
	b.obs.Func("queue_depth", b.queuedFrames)
	b.wg.Add(1)
	go b.acceptLoop()
	return b
}

// queuedFrames sums the frames currently queued to all subscribers.
func (b *Broker) queuedFrames() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for c := range b.conns {
		n += int64(len(c.out))
	}
	return n
}

// Listen starts a broker on a fresh TCP listener at addr (e.g.
// "127.0.0.1:0").
func Listen(addr string, opts ...BrokerOption) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("eventbus: listen: %w", err)
	}
	return NewBroker(ln, opts...), nil
}

// Addr returns the broker's listen address.
func (b *Broker) Addr() net.Addr { return b.ln.Addr() }

// Close shuts the broker down: stops accepting, closes every connection and
// waits for all handlers to exit.
func (b *Broker) Close() error {
	select {
	case <-b.closed:
		return nil
	default:
	}
	close(b.closed)
	err := b.ln.Close()
	b.mu.Lock()
	for c := range b.conns {
		_ = c.conn.Close()
	}
	b.mu.Unlock()
	b.wg.Wait()
	return err
}

// SubscriberCount reports how many connections currently subscribe to the
// named stream.
func (b *Broker) SubscriberCount(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.streams[name]
	if !ok {
		return 0
	}
	return len(st.subs)
}

// Streams lists the streams that have been announced or published to.
func (b *Broker) Streams() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.streams))
	for name := range b.streams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			select {
			case <-b.closed:
				return
			default:
			}
			b.log.Error("accept failed", "err", err)
			return
		}
		id := flight.NextConnID()
		bc := &brokerConn{
			conn:         conn,
			id:           id,
			queueWait:    b.m.queueWaitVec.With(strconv.FormatUint(id, 10)),
			out:          make(chan outFrame, b.queueDepth),
			outClose:     make(chan struct{}),
			writerDone:   make(chan struct{}),
			dropped:      b.m.dropped,
			sentFormats:  make(map[pbio.FormatID]bool),
			knownFormats: make(map[pbio.FormatID][]byte),
			scopes:       make(map[string][]string),
		}
		b.mu.Lock()
		b.conns[bc] = true
		b.mu.Unlock()
		b.rec.Record(flight.KindConnOpen, bc.id, "", 0, 0, conn.RemoteAddr().String())
		b.wg.Add(2)
		go b.writeLoop(bc)
		go b.handle(bc)
	}
}

func (b *Broker) handle(bc *brokerConn) {
	defer b.wg.Done()
	defer b.drop(bc)
	// Read-ahead: one Read surfaces every frame the peer has already sent, up
	// to readAhead bytes of them. It belongs to this connection and goes with
	// it; frame lengths are still trusted in readFrame alone.
	rd := bufio.NewReaderSize(bc.conn, readAhead)
	var buf []byte
	for {
		typ, payload, newBuf, err := readFrame(rd, buf)
		if err != nil {
			// io.EOF is a clean disconnect (at a frame boundary; a frame cut
			// short is io.ErrUnexpectedEOF) and net.ErrClosed our own
			// shutdown; anything else is diagnostic.
			detail := ""
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				b.log.Warn("read failed", "conn", bc.id, "remote", bc.conn.RemoteAddr().String(), "err", err)
				detail = err.Error()
			}
			b.rec.Record(flight.KindConnClose, bc.id, "", 0, 0, detail)
			return
		}
		buf = newBuf
		if err := b.dispatch(bc, typ, payload); err != nil {
			b.log.Warn("dispatch failed", "conn", bc.id, "remote", bc.conn.RemoteAddr().String(), "err", err)
			b.rec.Record(flight.KindBrokerError, bc.id, "", 0, 0, err.Error())
			_, _ = bc.enqueue(frameError, []byte(err.Error()), droppable, nil)
			return
		}
	}
}

func (b *Broker) dispatch(bc *brokerConn, typ byte, payload []byte) error {
	switch typ {
	case frameHello:
		_, caps, err := parseHello(payload)
		if err != nil {
			return err
		}
		bc.caps.Store(caps & localCaps)
		b.rec.Record(flight.KindHello, bc.id, "", 0, int64(caps&localCaps), "negotiated")
		_, err = bc.enqueue(frameHello, helloPayload(localCaps), mustSend, nil)
		return err

	case frameAnnounce:
		name, _, err := getStr(payload)
		if err != nil {
			return err
		}
		b.mu.Lock()
		b.ensureStream(name)
		b.mu.Unlock()
		return nil

	case frameFormat:
		f, err := pbio.UnmarshalMeta(payload)
		if err != nil {
			return err
		}
		bc.knownFormats[f.ID] = append([]byte(nil), payload...)
		b.rec.Record(flight.KindFormatRecv, bc.id, "", fid64(f.ID), int64(len(payload)), f.Name)
		return nil

	case frameSubscribe:
		name, rest, err := getStr(payload)
		if err != nil {
			return err
		}
		var scope []string
		if len(rest) > 0 {
			n := int(rest[0])
			rest = rest[1:]
			for i := 0; i < n; i++ {
				var field string
				if field, rest, err = getStr(rest); err != nil {
					return err
				}
				scope = append(scope, field)
			}
		}
		b.mu.Lock()
		st := b.ensureStream(name)
		st.subs[bc] = true
		if scope != nil {
			bc.scopes[name] = scope
		} else {
			delete(bc.scopes, name)
		}
		formats := append([]formatMeta(nil), st.formats...)
		wires := make([]*streamWire, len(formats))
		for i, fm := range formats {
			wires[i] = st.wireFor(&b.m, fm)
		}
		b.mu.Unlock()
		// Deliver the stream's known formats (sliced if scoped) so the
		// subscriber can decode records that arrive immediately.
		for i, fm := range formats {
			if err := b.deliverFormat(bc, name, fm, wires[i]); err != nil {
				return err
			}
		}
		return nil

	case frameUnsub:
		name, _, err := getStr(payload)
		if err != nil {
			return err
		}
		b.mu.Lock()
		if st, ok := b.streams[name]; ok {
			delete(st.subs, bc)
		}
		b.mu.Unlock()
		return nil

	case framePublish:
		return b.publish(bc, payload, false)

	case framePublishTrace:
		if bc.caps.Load()&capTrace == 0 {
			return fmt.Errorf("%w: traced publish without trace capability", ErrBadFrame)
		}
		return b.publish(bc, payload, true)

	case frameList:
		_, err := bc.enqueue(frameStreams, []byte(strings.Join(b.Streams(), "\x00")), droppable, nil)
		return err

	default:
		return fmt.Errorf("%w: type %d", ErrBadFrame, typ)
	}
}

// ensureStream returns the stream record, creating it if new. Caller holds
// b.mu.
func (b *Broker) ensureStream(name string) *stream {
	st, ok := b.streams[name]
	if !ok {
		st = &stream{name: name, subs: make(map[*brokerConn]bool), wire: make(map[pbio.FormatID]*streamWire)}
		b.streams[name] = st
	}
	return st
}

// delivery carries one published record through the fanout loop: the parsed
// pieces, the payload variants (built lazily, shared across subscribers) and
// the trace context when the record arrived in a traced frame.
type delivery struct {
	st     *stream
	fm     formatMeta
	w      *streamWire
	record []byte // NDR record bytes (after the format id)
	plain  []byte // frameEvent payload: stream || id || record
	traced []byte // frameEventTrace payload: stream || trace ctx || id || record

	isTraced bool
	tid      trace.TraceID
	parent   trace.SpanID // outgoing parent: broker route span, or upstream's
	route    trace.Ctx    // parents dcg.compile / dcg.convert child spans
}

// tracedPayload lazily builds the frameEventTrace payload.
func (d *delivery) tracedPayload() []byte {
	if d.traced == nil {
		p := putStr(nil, d.st.name)
		p = putTraceCtx(p, d.tid, d.parent)
		p = append(p, d.fm.id[:]...)
		p = append(p, d.record...)
		d.traced = p
	}
	return d.traced
}

func (b *Broker) publish(bc *brokerConn, payload []byte, isTraced bool) error {
	start := time.Now()
	name, rest, err := getStr(payload)
	if err != nil {
		return err
	}
	var tid trace.TraceID
	var parent trace.SpanID
	if isTraced {
		if tid, parent, rest, err = getTraceCtx(rest); err != nil {
			return err
		}
	}
	if len(rest) < 8 {
		return fmt.Errorf("%w: publish without format id", ErrBadFrame)
	}
	var id pbio.FormatID
	copy(id[:], rest)

	meta, ok := bc.knownFormats[id]
	if !ok {
		return fmt.Errorf("eventbus: publish on %q references unannounced format %s", name, id)
	}

	b.mu.Lock()
	st := b.ensureStream(name)
	if !st.hasFormat(id) {
		st.formats = append(st.formats, formatMeta{id: id, meta: meta})
	}
	w := st.wireFor(&b.m, formatMeta{id: id, meta: meta})
	subs := make([]*brokerConn, 0, len(st.subs))
	for s := range st.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()

	b.m.published.Add(1)
	w.recs.Add(1)
	w.bytes.Add(int64(len(rest) - 8))

	d := delivery{
		st:       st,
		fm:       formatMeta{id: id, meta: meta},
		w:        w,
		record:   rest[8:],
		isTraced: isTraced,
		tid:      tid,
		parent:   parent,
	}
	if isTraced {
		// Record this hop's routing span. If the broker's tracer is off the
		// record still carries the upstream context downstream, so
		// subscriber-side spans keep linking into the trace.
		d.route = b.tracer.Join(tid, parent).Child("broker.route")
		if d.route.Sampled() {
			d.parent = d.route.Span()
		}
		// The incoming payload embeds the publisher's parent id; rebuild the
		// plain variant for subscribers that did not negotiate tracing.
		p := putStr(nil, name)
		p = append(p, id[:]...)
		d.plain = append(p, d.record...)
	} else {
		d.plain = payload
	}

	for _, sub := range subs {
		if err := b.deliver(sub, &d); err != nil {
			b.log.Warn("dropping subscriber", "conn", sub.id,
				"remote", sub.conn.RemoteAddr().String(), "stream", name, "err", err)
			b.rec.Record(flight.KindBrokerError, sub.id, name, fid64(id), 0, err.Error())
			b.drop(sub)
		}
	}
	d.route.FinishDetail(st.name)
	// Traced publishes stamp their TraceID onto the routing histogram bucket;
	// untraced ones still count (trace.TraceID zero value short-circuits).
	b.m.routeNS.ObserveExemplar(time.Since(start).Nanoseconds(), tid)
	return nil
}

// deliver routes one record to one subscriber, projecting it onto the
// subscriber's scope when one is set. Subscribers that negotiated capTrace
// receive traced records as frameEventTrace with this broker's route span as
// the parent link; everyone else receives plain frameEvent.
func (b *Broker) deliver(sub *brokerConn, d *delivery) error {
	b.mu.Lock()
	scope := sub.scopes[d.st.name]
	b.mu.Unlock()
	subTraced := d.isTraced && sub.caps.Load()&capTrace != 0
	if scope == nil {
		if err := b.sendFormat(sub, d.fm, d.w); err != nil {
			return err
		}
		if subTraced {
			return b.sendEvent(sub, d, frameEventTrace, d.tracedPayload())
		}
		return b.sendEvent(sub, d, frameEvent, d.plain)
	}
	sf, err := b.scopedFor(d.fm, scope, d.route)
	if err != nil {
		// A scope the format cannot satisfy is the subscriber's error.
		return fmt.Errorf("scope %v: %w", scope, err)
	}
	converted, err := sf.plan.ConvertCtx(d.route, d.record)
	if err != nil {
		return fmt.Errorf("scope projection: %w", err)
	}
	if err := b.sendFormat(sub, formatMeta{id: sf.format.ID, meta: sf.meta}, d.w); err != nil {
		return err
	}
	payload := putStr(nil, d.st.name)
	typ := frameEvent
	if subTraced {
		typ = frameEventTrace
		payload = putTraceCtx(payload, d.tid, d.parent)
	}
	payload = append(payload, sf.format.ID[:]...)
	payload = append(payload, converted...)
	return b.sendEvent(sub, d, typ, payload)
}

// sendEvent enqueues one event frame, counting delivery or the drop in the
// labeled (stream, format) family; enqueue counts the aggregate drop.
func (b *Broker) sendEvent(sub *brokerConn, d *delivery, typ byte, payload []byte) error {
	queued, err := sub.enqueue(typ, payload, droppable, d)
	if err != nil {
		return err
	}
	if queued {
		b.m.delivered.Add(1)
		d.w.delRecs.Add(1)
		d.w.delBytes.Add(int64(len(payload)))
	} else {
		d.w.dropRecs.Add(1)
	}
	return nil
}

// deliverFormat sends a stream format (or its scoped slice) to a subscriber.
func (b *Broker) deliverFormat(sub *brokerConn, streamName string, fm formatMeta, w *streamWire) error {
	b.mu.Lock()
	scope := sub.scopes[streamName]
	b.mu.Unlock()
	if scope == nil {
		return b.sendFormat(sub, fm, w)
	}
	sf, err := b.scopedFor(fm, scope, trace.Ctx{})
	if err != nil {
		return fmt.Errorf("scope %v: %w", scope, err)
	}
	return b.sendFormat(sub, formatMeta{id: sf.format.ID, meta: sf.meta}, w)
}

// scopedFor returns (building and memoizing if needed) the slice of the
// format fm restricted to the given fields, with its conversion plan. A
// first-use compilation records a dcg.compile child span of tc.
func (b *Broker) scopedFor(fm formatMeta, scope []string, tc trace.Ctx) (*scopedFormat, error) {
	key := scopeKey{id: fm.id, scope: strings.Join(scope, ",")}
	b.mu.Lock()
	sf, ok := b.scoped[key]
	b.mu.Unlock()
	if ok {
		return sf, nil
	}
	full, err := pbio.UnmarshalMeta(fm.meta)
	if err != nil {
		return nil, err
	}
	subset, err := pbio.DeriveSubset(full, scope)
	if err != nil {
		return nil, err
	}
	plan, err := b.plans.PlanCtx(tc, full, subset)
	if err != nil {
		return nil, err
	}
	sf = &scopedFormat{format: subset, meta: pbio.MarshalMeta(subset), plan: plan}
	b.mu.Lock()
	if prev, ok := b.scoped[key]; ok {
		sf = prev
	} else {
		b.scoped[key] = sf
	}
	b.mu.Unlock()
	return sf, nil
}

func (st *stream) hasFormat(id pbio.FormatID) bool {
	for _, fm := range st.formats {
		if fm.id == id {
			return true
		}
	}
	return false
}

// sendFormat sends format metadata to a subscriber once. The decision and
// the enqueue happen under one lock so the format frame is queued before
// any event frame that needs it. Metadata bytes count against the parent
// (stream, format) wire pair when one is known — a scoped slice's bytes are
// attributed to the full format it was derived from.
func (b *Broker) sendFormat(sub *brokerConn, fm formatMeta, w *streamWire) error {
	sub.wmu.Lock()
	defer sub.wmu.Unlock()
	if sub.sentFormats[fm.id] {
		return nil
	}
	if _, err := sub.enqueue(frameFormat, fm.meta, mustSend, nil); err != nil {
		if errors.Is(err, ErrSlowSubscriber) {
			b.m.slowStalls.Add(1)
			b.rec.Record(flight.KindSlowSubDrop, sub.id, "", fid64(fm.id), int64(len(fm.meta)), "format frame stalled")
		}
		return err
	}
	b.m.formatsSent.Add(1)
	if w != nil {
		w.metaBytes.Add(int64(len(fm.meta)))
		b.rec.Record(flight.KindFormatSend, sub.id, w.stream, fid64(fm.id), int64(len(fm.meta)), w.fname)
	} else {
		b.rec.Record(flight.KindFormatSend, sub.id, "", fid64(fm.id), int64(len(fm.meta)), "")
	}
	sub.sentFormats[fm.id] = true
	return nil
}

// writeLoop drains the outbound queue onto the socket. It blocks for one
// frame and then sends it with whatever else is already queued (see
// writeQueued), so nothing is held back waiting for company. On teardown it
// flushes frames already queued (bounded by a write deadline) so error
// frames and final events reach the peer.
func (b *Broker) writeLoop(bc *brokerConn) {
	defer b.wg.Done()
	defer close(bc.writerDone)
	draining := false
	for {
		var f outFrame
		if draining {
			select {
			case f = <-bc.out:
			default:
				return
			}
		} else {
			select {
			case f = <-bc.out:
			case <-bc.outClose:
				_ = bc.conn.SetWriteDeadline(time.Now().Add(b.writeDeadline))
				draining = true
				continue
			}
		}
		b.observeQueueWait(bc, &f)
		if err := b.writeQueued(bc, f.wire); err != nil {
			// Socket is dead: unregister and let the reader notice.
			b.unregister(bc)
			_ = bc.conn.Close()
			return
		}
	}
}

// writeQueued sends wire, the frame just dequeued, and with it the frames
// queued behind it right now: they are taken without blocking, copied into
// the connection's batch buffer while they fit, and leave in one Write. A
// frame with nothing behind it, and a frame the buffer has no room left for,
// is written as it is — so the buffer never grows, a large frame is never
// copied, and order on the wire is queue order.
func (b *Broker) writeQueued(bc *brokerConn, wire []byte) error {
	batch := bc.batch[:0]
gather:
	for len(batch)+len(wire) <= frameChunk {
		select {
		case f := <-bc.out:
			b.observeQueueWait(bc, &f)
			if cap(batch) == 0 {
				batch = make([]byte, 0, frameChunk)
				bc.batch = batch
			}
			batch = append(batch, wire...)
			wire = f.wire
		default:
			break gather
		}
	}
	if len(batch) == 0 {
		return writeWire(bc.conn, wire)
	}
	if len(batch)+len(wire) <= frameChunk {
		return writeWire(bc.conn, append(batch, wire...))
	}
	if err := writeWire(bc.conn, batch); err != nil {
		return err
	}
	return writeWire(bc.conn, wire)
}

// observeQueueWait turns a dequeued frame's enqueue timestamp into the
// queue-wait observations: the broker-wide histogram (exemplar-stamped when
// the frame is traced), the per-subscriber labeled child, and — for traced
// event frames — a retroactive broker.queue span starting at the enqueue, so
// an assembled trace shows the queue as its own stage. Measured
// at dequeue, before the socket write, so a stalled-but-draining subscriber
// still records its waits.
func (b *Broker) observeQueueWait(bc *brokerConn, f *outFrame) {
	wait := time.Since(f.enq)
	b.m.queueWaitNS.ObserveExemplar(wait.Nanoseconds(), f.tid)
	bc.queueWait.Observe(wait.Nanoseconds())
	b.tracer.RecordSpan(f.tid, f.parent, "broker.queue", f.stream, f.enq, wait)
}

// Enqueue modes. A droppable frame (events, stream listings, errors) is
// discarded and counted when the subscriber's queue is full — a slow
// consumer loses records, never stalls the bus. A must-send frame (format
// metadata, hello) waits for queue space up to mustSendStall, because later
// frames are meaningless without it.
const (
	droppable = false
	mustSend  = true
)

// enqueue copies payload into a wire-ready frame, stamps it and queues it
// for the writer loop — the one way onto a connection's outbound queue. d is
// the delivery an event frame belongs to (nil for every other frame), whose
// trace context rides along. It reports whether the frame was queued (false
// with a nil error: dropped on a full queue, counted in the broker's drop
// counter).
func (bc *brokerConn) enqueue(typ byte, payload []byte, must bool, d *delivery) (bool, error) {
	wire, err := newFrame(typ, payload)
	if err != nil {
		return false, err
	}
	f := outFrame{wire: wire, enq: time.Now()}
	if d != nil && d.isTraced {
		f.tid, f.parent, f.stream = d.tid, d.parent, d.st.name
	}
	select {
	case bc.out <- f:
		return true, nil
	case <-bc.outClose:
		return false, ErrClosed
	default:
	}
	if !must {
		bc.dropped.Add(1)
		return false, nil
	}
	t := time.NewTimer(mustSendStall)
	defer t.Stop()
	select {
	case bc.out <- f:
		return true, nil
	case <-bc.outClose:
		return false, ErrClosed
	case <-t.C:
		return false, fmt.Errorf("%w: write queue stalled for %v", ErrSlowSubscriber, mustSendStall)
	}
}

// unregister removes a connection from routing state; it reports whether
// this call was the one that removed it.
func (b *Broker) unregister(bc *brokerConn) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.conns[bc] {
		return false
	}
	delete(b.conns, bc)
	for _, st := range b.streams {
		delete(st.subs, bc)
	}
	return true
}

// drop tears a connection down: unregisters it, lets the writer flush its
// queued frames, then closes the socket.
func (b *Broker) drop(bc *brokerConn) {
	first := b.unregister(bc)
	select {
	case <-bc.outClose:
	default:
		if first {
			close(bc.outClose)
		}
	}
	select {
	case <-bc.writerDone:
	case <-time.After(3 * time.Second):
	}
	_ = bc.conn.Close()
}

// BrokerStats is a point-in-time view of the broker's delivery health.
type BrokerStats struct {
	// Streams and Subscribers describe current routing state.
	Streams     int
	Subscribers int
	// QueuedFrames is the total outbound backlog across subscriber queues.
	QueuedFrames int64
	// Cumulative counters (shared with other brokers on the same obsv
	// registry; pass WithObserver for per-broker isolation).
	Published            int64
	Delivered            int64
	Dropped              int64
	FormatsSent          int64
	SlowSubscriberStalls int64
}

// Stats reports the broker's delivery health. Drop counts persist after the
// dropping connection closes.
func (b *Broker) Stats() BrokerStats {
	s := BrokerStats{
		Published:            b.m.published.Load(),
		Delivered:            b.m.delivered.Load(),
		Dropped:              b.m.dropped.Load(),
		FormatsSent:          b.m.formatsSent.Load(),
		SlowSubscriberStalls: b.m.slowStalls.Load(),
		QueuedFrames:         b.queuedFrames(),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	s.Streams = len(b.streams)
	seen := make(map[*brokerConn]bool)
	for _, st := range b.streams {
		for c := range st.subs {
			seen[c] = true
		}
	}
	s.Subscribers = len(seen)
	return s
}

// Healthy reports nil while the broker is accepting connections. It is shaped
// as a readiness probe for obsv.RegisterProbe.
func (b *Broker) Healthy() error {
	select {
	case <-b.closed:
		return errors.New("broker closed")
	default:
		return nil
	}
}

// PlanCacheLen reports how many scoped-conversion plans are currently
// memoized, for bounding probes against dcg.WithMaxEntries caches.
func (b *Broker) PlanCacheLen() int { return b.plans.Len() }
