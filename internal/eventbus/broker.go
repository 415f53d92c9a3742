package eventbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"slices"
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

	// mu is the control plane: it guards conns and streams and serializes
	// every route rebuild. A publish to a stream and format the broker
	// already routes does not take it.
	mu      sync.Mutex
	conns   map[*brokerConn]bool
	streams map[string]*stream

	// plans memoizes conversion programs for format scoping (§4.4 of the
	// paper: exposing "slices" of a stream to particular subscribers).
	plans *dcg.Cache

	// spares holds the chunks publishes are read into and frame images
	// built in, once every frame queued from them has been written.
	spares *pbio.Spares
}

// brokerMetrics bundles the broker-wide instruments. Brokers sharing a
// registry (the default unless WithObserver is given) share counters.
type brokerMetrics struct {
	published   *obsv.Counter // records accepted from publishers
	delivered   *obsv.Counter // event frames enqueued to subscribers
	dropped     *obsv.Counter // frames discarded on full subscriber queues
	formatsSent *obsv.Counter // format-metadata frames sent to subscribers
	slowStalls  *obsv.Counter // must-send stalls on slow subscribers

	// routeNS times publish-to-fanout routing (stream and format lookup,
	// every class's frame image, every subscriber's enqueue). Traced
	// publishes stamp their TraceID onto the bucket as its exemplar, so a
	// routing p99 spike names a real trace.
	routeNS *obsv.Histogram // route_ns

	// queueWaitNS times enqueue→wire per outbound frame across all
	// subscribers, exemplar-stamped for traced frames; queueWaitVec splits
	// the same measurement per subscriber connection (label "conn"), so one
	// stalled subscriber is distinguishable from fleet-wide backpressure.
	// Connection ids churn with reconnects; the registry's label-children
	// bound clamps runaway cardinality onto the overflow child.
	queueWaitNS  *obsv.Histogram    // queue_wait_ns
	queueWaitVec *obsv.HistogramVec // subscriber.queue_wait_ns{conn}
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
	}
}

// Package-level default instruments, created at init so the eventbus.*
// metric names exist (zero-valued) in openmeta.Stats() from process start.
var defaultBrokerMetrics = newBrokerMetrics(obsv.Default().Scope("eventbus"))

// stream is one named stream. Its route is the one record of who gets what.
type stream struct {
	name  string
	route atomic.Pointer[route]
}

// route is one stream's routing table: the formats seen on the stream and
// its subscribers, grouped into classes by the bytes they receive. A stored
// route is never changed: subscribe, unsubscribe, disconnect and the first
// publish of a format build a new one under Broker.mu and swap it in, so
// publish reads it without a lock.
type route struct {
	formats []*routeFormat // arrival order; only ever appended to
	classes []*class
}

// class is the subscribers that share a scope, the full format being one. A
// publish builds one frame image per class and queues those same bytes on
// each member. A scoped class's slices of the stream's formats live as long
// as it has members.
type class struct {
	scope  string // interned: the field list as subscribe frames encode it; "" is the full format
	fields []string
	slices []*scopedFormat // by route format index
	subs   []*member
}

// scopedFormat is a derived subset format with the conversion plan that
// projects full records onto it.
type scopedFormat struct {
	formatMeta
	plan *dcg.Plan
	err  error // why the scope cannot slice the format, instead
}

// member is one subscriber's place in a class. sent counts the route's
// leading formats whose metadata (a scoped class's slice of them) is queued
// to bc.
type member struct {
	bc   *brokerConn
	sent atomic.Int32
}

// format returns the index of the format with the given id, or -1.
func (r *route) format(id pbio.FormatID) int {
	return slices.IndexFunc(r.formats, func(rf *routeFormat) bool { return rf.id == id })
}

// members lists the route's subscribers.
func (r *route) members() (out []*member) {
	for _, c := range r.classes {
		out = append(out, c.subs...)
	}
	return out
}

// without returns a copy of r with bc in no class. A class left without
// members is left out, and its scoped formats with it.
func (r *route) without(bc *brokerConn) *route {
	next := &route{formats: r.formats}
	for _, c := range r.classes {
		nc := *c
		nc.subs = slices.DeleteFunc(slices.Clone(c.subs), func(m *member) bool { return m.bc == bc })
		if len(nc.subs) > 0 {
			next.classes = append(next.classes, &nc)
		}
	}
	return next
}

// routeFormat is one format seen on a stream, with the names format_send
// events carry and its wire.*{stream,format} counters (published,
// delivered, dropped, metadata sent), resolved once for the fanout.
type routeFormat struct {
	formatMeta
	stream, fname                                       string
	recs, bytes, delRecs, delBytes, dropRecs, metaBytes *obsv.Counter
}

func newRouteFormat(s obsv.Scope, stream string, fm formatMeta) *routeFormat {
	name, err := pbio.MetaRootName(fm.meta)
	if err != nil || name == "" {
		name = fm.id.String() // undecodable metadata: fall back to the hex id
	}
	wire := func(family string) *obsv.Counter {
		return s.CounterVec("wire."+family, "stream", "format").With(stream, name)
	}
	return &routeFormat{fm, stream, name, wire("records"), wire("bytes"),
		wire("delivered.records"), wire("delivered.bytes"), wire("dropped.records"), wire("meta.bytes")}
}

// fid64 renders a format ID as the uint64 flight events and filters use.
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

	wmu sync.Mutex // guards sentFormats ordering decisions

	// sentFormats tracks which format IDs this (subscriber) connection has
	// already received metadata for.
	sentFormats map[pbio.FormatID]bool

	// Publisher side, only for the connection's reader goroutine: formats
	// announced, streams published to, and where frame images are built.
	knownFormats map[pbio.FormatID][]byte
	streams      map[string]*stream
	images       images

	// queueWait is this connection's child of the broker's
	// subscriber.queue_wait_ns vec, resolved once at accept so the writer
	// loop's dequeue path never touches the label map.
	queueWait *obsv.Histogram
}

// outFrame is one queued outbound frame: the complete wire image (header
// and payload in one buffer, shared by the subscribers of its class, so the
// writer issues a single Write) plus what the dequeue side observes.
type outFrame struct {
	wire []byte
	// chunk is the spare-list chunk wire lies in, or nil. The frame holds a
	// reference to it from enqueue until it is written or copied out.
	chunk *pbio.Chunk
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
// format metadata, slow-subscriber stalls, errors) into r
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
		spares:        pbio.NewSpares(spareChunks, chunkReturned),
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
	if st, ok := b.streams[name]; ok {
		return len(st.route.Load().members())
	}
	return 0
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
		bc := b.newConn(conn)
		b.mu.Lock()
		b.conns[bc] = true
		b.mu.Unlock()
		b.rec.Record(flight.KindConnOpen, bc.id, "", 0, 0, conn.RemoteAddr().String())
		b.wg.Add(2)
		go b.writeLoop(bc)
		go b.handle(bc)
	}
}

// newConn returns the broker's side of an accepted connection.
func (b *Broker) newConn(conn net.Conn) *brokerConn {
	id := flight.NextConnID()
	return &brokerConn{
		conn:         conn,
		id:           id,
		queueWait:    b.m.queueWaitVec.With(strconv.FormatUint(id, 10)),
		out:          make(chan outFrame, b.queueDepth),
		outClose:     make(chan struct{}),
		writerDone:   make(chan struct{}),
		dropped:      b.m.dropped,
		sentFormats:  make(map[pbio.FormatID]bool),
		knownFormats: make(map[pbio.FormatID][]byte),
		streams:      make(map[string]*stream),
		images:       images{spares: b.spares},
	}
}

func (b *Broker) handle(bc *brokerConn) {
	defer b.wg.Done()
	defer b.drop(bc)
	// One Read takes in up to a chunk of frames. The reader goes with bc,
	// and its chunk and bc's image chunk go back once their frames are out.
	rd := pbio.NewFrameReader(bc.conn, maxFrame, b.spares)
	defer bc.images.release()
	defer rd.Release()
	for {
		frame, c, err := rd.Next()
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
		if err := b.dispatch(bc, frame, c); err != nil {
			b.log.Warn("dispatch failed", "conn", bc.id, "remote", bc.conn.RemoteAddr().String(), "err", err)
			b.rec.Record(flight.KindBrokerError, bc.id, "", 0, 0, err.Error())
			_, _ = bc.send(frameError, []byte(err.Error()), droppable)
			return
		}
	}
}

// dispatch acts on one frame a peer sent, a slice of chunk c unless that is
// nil. A plain publish is forwarded as it is, each queued copy holding a
// reference to c; nothing else keeps the frame's bytes past the call.
func (b *Broker) dispatch(bc *brokerConn, frame []byte, c *pbio.Chunk) error {
	switch typ, payload := frame[0], frame[pbio.FrameHeaderLen:]; typ {
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
		// A copy: an entry that lives as long as the connection must not
		// keep the chunk its frame was read in.
		bc.knownFormats[f.ID] = append([]byte(nil), payload...)
		b.rec.Record(flight.KindFormatRecv, bc.id, "", fid64(f.ID), int64(len(payload)), f.Name)
		return nil

	case frameSubscribe:
		name, scope, fields, err := parseSubscribe(payload)
		if err != nil {
			return err
		}
		b.mu.Lock()
		r, c, m := b.subscribe(b.ensureStream(name), bc, scope, fields)
		b.mu.Unlock()
		// The stream's known formats (sliced if scoped) go out at once, and
		// the answer behind them.
		if err := b.sendFormats(r, c, m); err != nil {
			return err
		}
		_, err = bc.send(frameSubscribed, putStr(nil, name), mustSend)
		return err

	case frameUnsub:
		name, _, err := getStr(payload)
		if err != nil {
			return err
		}
		b.mu.Lock()
		if st, ok := b.streams[name]; ok {
			st.route.Store(st.route.Load().without(bc))
		}
		b.mu.Unlock()
		return nil

	case framePublish:
		return b.publish(bc, frame, c, false)

	case framePublishTrace:
		return b.publish(bc, frame, c, true)

	case frameList:
		_, err := bc.send(frameStreams, []byte(strings.Join(b.Streams(), "\x00")), droppable)
		return err

	default:
		return fmt.Errorf("%w: type %d", ErrBadFrame, typ)
	}
}

// ensureStream returns the named stream, creating it. Caller holds b.mu.
func (b *Broker) ensureStream(name string) *stream {
	st, ok := b.streams[name]
	if !ok {
		st = &stream{name: name}
		st.route.Store(&route{})
		b.streams[name] = st
	}
	return st
}

// subscribe stores the stream's route with bc a member of the class for
// scope, in place of any subscription it had to the stream. A new scoped
// class is sliced from every format the stream has seen. Caller holds b.mu.
func (b *Broker) subscribe(st *stream, bc *brokerConn, scope string, fields []string) (*route, *class, *member) {
	r := st.route.Load().without(bc) // a fresh copy, classes and all: ours to change
	c := &class{scope: scope, fields: fields}
	if i := slices.IndexFunc(r.classes, func(c *class) bool { return c.scope == scope }); i >= 0 {
		c = r.classes[i]
	} else {
		for _, rf := range r.formats {
			if fields != nil {
				c.slices = append(c.slices, b.slice(rf.formatMeta, fields, trace.Ctx{}))
			}
		}
		r.classes = append(r.classes, c)
	}
	m := &member{bc: bc}
	c.subs = append(c.subs, m)
	st.route.Store(r)
	return r, c, m
}

// addFormat stores the stream's route with fm appended and sliced for every
// scoped class. Caller holds b.mu.
func (b *Broker) addFormat(st *stream, fm formatMeta, tc trace.Ctx) {
	r := st.route.Load()
	next := &route{formats: append(slices.Clip(r.formats), newRouteFormat(b.obs, st.name, fm))}
	for _, c := range r.classes {
		if c.fields != nil {
			nc := *c
			nc.slices = append(slices.Clip(c.slices), b.slice(fm, c.fields, tc))
			c = &nc
		}
		next.classes = append(next.classes, c)
	}
	st.route.Store(next)
}

// slice derives fm's subset restricted to fields, with the plan that
// projects records onto it, or else the reason the scope cannot slice fm,
// which fails each subscriber of the scope that meets the format. A
// first-use compilation records a dcg.compile child span of tc.
func (b *Broker) slice(fm formatMeta, fields []string, tc trace.Ctx) *scopedFormat {
	full, err := pbio.UnmarshalMeta(fm.meta)
	if err == nil {
		var subset *pbio.Format
		if subset, err = pbio.DeriveSubset(full, fields); err == nil {
			var plan *dcg.Plan
			if plan, err = b.plans.PlanCtx(tc, full, subset); err == nil {
				return &scopedFormat{formatMeta: formatMeta{id: subset.ID, meta: pbio.MarshalMeta(subset)}, plan: plan}
			}
		}
	}
	return &scopedFormat{err: fmt.Errorf("scope %v: %w", fields, err)}
}

// delivery carries one published record through the fanout, with the trace
// context when the record arrived in a traced frame.
type delivery struct {
	st       *stream
	rf       *routeFormat
	record   []byte      // NDR record bytes (after the format id)
	plain    []byte      // an untraced publish's frame, retyped frameEvent: the plain class's image
	chunk    *pbio.Chunk // the chunk the publish frame lies in, or nil
	enq      time.Time   // the publish's one clock reading, before routing
	images   *images     // the publishing connection's, where class images are built
	isTraced bool
	tid      trace.TraceID
	parent   trace.SpanID // outgoing parent: broker route span, or upstream's
	route    trace.Ctx    // parents dcg.compile / dcg.convert child spans
}

func (b *Broker) publish(bc *brokerConn, frame []byte, c *pbio.Chunk, isTraced bool) error {
	name, rest, err := getBytes(frame[pbio.FrameHeaderLen:])
	if err != nil {
		return err
	}
	d := delivery{isTraced: isTraced, chunk: c, images: &bc.images}
	if isTraced {
		if d.tid, d.parent, rest, err = getTraceCtx(rest); err != nil {
			return err
		}
	}
	if len(rest) < 8 {
		return fmt.Errorf("%w: publish without format id", ErrBadFrame)
	}
	id := pbio.FormatID(rest[:8])
	meta, ok := bc.knownFormats[id]
	if !ok {
		return fmt.Errorf("eventbus: publish on %q references unannounced format %s", name, id)
	}
	d.record = rest[8:]
	if isTraced {
		// Record this hop's routing span. If the broker's tracer is off the
		// record still carries the upstream context downstream, so
		// subscriber-side spans keep linking into the trace.
		d.route = b.tracer.Join(d.tid, d.parent).Child("broker.route")
		if d.route.Sampled() {
			d.parent = d.route.Span()
		}
	} else {
		// An event frame is laid out as the publish frame it forwards.
		frame[0], d.plain = frameEvent, frame
	}
	d.enq = time.Now()

	// Only a stream new to this connection, or a format new to the stream,
	// takes the control-plane lock.
	if d.st = bc.streams[string(name)]; d.st == nil {
		b.mu.Lock()
		d.st = b.ensureStream(string(name))
		b.mu.Unlock()
		bc.streams[d.st.name] = d.st
	}
	r := d.st.route.Load()
	if r.format(id) < 0 {
		b.mu.Lock()
		if d.st.route.Load().format(id) < 0 {
			b.addFormat(d.st, formatMeta{id: id, meta: meta}, d.route)
		}
		b.mu.Unlock()
		r = d.st.route.Load()
	}
	fi := r.format(id)
	d.rf = r.formats[fi]

	b.m.published.Add(1)
	d.rf.recs.Add(1)
	d.rf.bytes.Add(int64(len(d.record)))
	for _, c := range r.classes {
		b.fanout(r, c, fi, &d)
	}
	d.route.FinishDetail(d.st.name)
	// Traced publishes stamp their TraceID onto the routing histogram bucket;
	// untraced ones still count (trace.TraceID zero value short-circuits).
	b.m.routeNS.ObserveExemplar(time.Since(d.enq).Nanoseconds(), d.tid)
	return nil
}

// fanout queues the record to every member of class c, preceded by the
// metadata of any format a member has not had yet: the same bytes on every
// queue. The plain class's image of an untraced publish is the
// publisher's own frame; every other image is built once per class, and a
// traced publish's carries its trace context to every member. Each queued
// frame holds a reference to the chunk its image lies in. Deliveries and
// drops are counted in the labeled (stream, format) family; enqueue counts
// the aggregate drop.
func (b *Broker) fanout(r *route, c *class, fi int, d *delivery) {
	f := outFrame{enq: d.enq}
	var sf *scopedFormat
	if c.fields != nil {
		sf = c.slices[fi]
	} else {
		f.wire, f.chunk = d.plain, d.chunk
	}
	var imageErr error
	if f.wire == nil {
		f.wire, f.chunk, imageErr = d.image(sf)
	}
	if d.isTraced {
		f.tid, f.parent, f.stream = d.tid, d.parent, d.st.name
	}
	for _, m := range c.subs {
		err, queued := imageErr, false
		// An enqueue readies the queue's writer onto this processor, so a
		// queue past half full may be waiting for it: yield it first.
		if 2*len(m.bc.out) > cap(m.bc.out) {
			runtime.Gosched()
		}
		if err == nil && int(m.sent.Load()) <= fi {
			err = b.sendFormats(r, c, m)
		}
		if err == nil {
			f.chunk.Retain() // before the writer can see the frame
			if queued, err = m.bc.enqueue(f, droppable); !queued {
				f.chunk.Release()
			}
		}
		switch {
		case err != nil:
			b.log.Warn("dropping subscriber", "conn", m.bc.id,
				"remote", m.bc.conn.RemoteAddr().String(), "stream", d.st.name, "err", err)
			b.rec.Record(flight.KindBrokerError, m.bc.id, d.st.name, fid64(d.rf.id), 0, err.Error())
			if errors.Is(err, ErrSlowSubscriber) {
				// Its queue has shown that nothing in it can be delivered:
				// no flush, so its writer stops now and drop does not wait.
				_ = m.bc.conn.Close()
			}
			b.drop(m.bc)
		case queued:
			b.m.delivered.Add(1)
			d.rf.delRecs.Add(1)
			d.rf.delBytes.Add(int64(len(f.wire) - pbio.FrameHeaderLen))
		default:
			d.rf.dropRecs.Add(1)
		}
	}
}

// image builds a class's frame: header, stream name, the trace context when
// traced, format id, and the record, projected onto sf for a scoped class by
// converting it straight into the frame. An image of up to MaxChunkFrame
// bytes is carved from the publishing connection's image chunk, which it
// returns; a larger one, or a projection that outgrew the room left, is an
// allocation of its own.
func (d *delivery) image(sf *scopedFormat) (wire []byte, c *pbio.Chunk, err error) {
	typ, id := frameEvent, d.rf.id
	if sf != nil {
		if id = sf.id; sf.err != nil {
			return nil, nil, sf.err
		}
	}
	// The image's size when the record is copied; a projection is sized by
	// the same measure.
	n := pbio.FrameHeaderLen + 2 + len(d.st.name) + 8 + len(d.record)
	if d.isTraced {
		n += traceCtxLen
	}
	var room []byte
	if n <= pbio.MaxChunkFrame {
		room = d.images.room(n)
	} else {
		room = make([]byte, 0, n)
	}
	p := putStr(pbio.BeginFrame(room), d.st.name)
	if d.isTraced {
		typ = frameEventTrace
		p = putTraceCtx(p, d.tid, d.parent)
	}
	if wire = append(p, id[:]...); sf == nil {
		wire = append(wire, d.record...)
	} else if wire, err = sf.plan.AppendConvertCtx(d.route, wire, d.record); err != nil {
		return nil, nil, fmt.Errorf("scope projection: %w", err)
	}
	if err := pbio.EndFrame(wire, typ, maxFrame); err != nil {
		return nil, nil, err
	}
	// An append past room's capacity moved the image to a larger one.
	if n <= pbio.MaxChunkFrame && cap(wire) == cap(room) {
		return d.images.carve(len(wire)), d.images.c, nil
	}
	return wire, nil, nil
}

// images is where a publishing connection builds the frame images it
// queues: carved one after another from a chunk of the broker's spare list,
// to which images holds a reference until it moves to the next. Only the
// connection's reader goroutine touches it.
type images struct {
	spares *pbio.Spares
	c      *pbio.Chunk
	off    int // c's bytes before off are carved
}

// room returns the chunk's uncarved bytes, at least n of them, as an empty
// slice: a chunk with fewer left is given up for a fresh one.
func (im *images) room(n int) []byte {
	if im.c == nil || len(im.c.Bytes())-im.off < n {
		im.release()
		im.c = im.spares.Get()
	}
	return im.c.Bytes()[im.off:im.off]
}

// carve marks the first n bytes of the room as one image and returns them.
func (im *images) carve(n int) []byte {
	image := im.c.Bytes()[im.off : im.off+n : im.off+n]
	im.off += n
	return image
}

// release gives back the reference to the current chunk.
func (im *images) release() {
	im.c.Release()
	im.c, im.off = nil, 0
}

// sendFormats queues to m, in route order and once per connection, the
// metadata of each format of r it has not had (for a scoped class, the
// format's slice), or fails with the reason the scope cannot slice one.
// Deciding and queueing under the connection's wmu puts a format frame
// ahead of every event frame that needs it. Metadata bytes count against
// the (stream, format) pair, a slice's against the format it came from.
func (b *Broker) sendFormats(r *route, c *class, m *member) error {
	sub := m.bc
	sub.wmu.Lock()
	defer sub.wmu.Unlock()
	for i := int(m.sent.Load()); i < len(r.formats); i++ {
		rf, fm := r.formats[i], r.formats[i].formatMeta
		if c.fields != nil {
			if fm = c.slices[i].formatMeta; c.slices[i].err != nil {
				return c.slices[i].err
			}
		}
		if !sub.sentFormats[fm.id] {
			if _, err := sub.send(frameFormat, fm.meta, mustSend); err != nil {
				if errors.Is(err, ErrSlowSubscriber) {
					b.m.slowStalls.Add(1)
					b.rec.Record(flight.KindSlowSubDrop, sub.id, "", fid64(fm.id), int64(len(fm.meta)), "format frame stalled")
				}
				return err
			}
			b.m.formatsSent.Add(1)
			rf.metaBytes.Add(int64(len(fm.meta)))
			b.rec.Record(flight.KindFormatSend, sub.id, rf.stream, fid64(fm.id), int64(len(fm.meta)), rf.fname)
			sub.sentFormats[fm.id] = true
		}
		m.sent.Store(int32(i + 1))
	}
	return nil
}

// writeLoop drains the outbound queue onto the socket. It blocks for one
// frame and then sends it with whatever else is already queued (see
// writeQueued), so nothing is held back waiting for company. On teardown it
// flushes frames already queued (bounded by the write deadline drop sets)
// so error frames and final events reach the peer.
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
				draining = true
				continue
			}
		}
		b.observeQueueWait(bc, &f)
		if err := b.writeQueued(bc, f); err != nil {
			// Socket is dead: unregister and let the reader notice.
			b.unregister(bc)
			_ = bc.conn.Close()
			return
		}
	}
}

// writeQueued sends f, the frame just dequeued, and with it the frames
// queued behind it right now: they are taken without blocking, copied into
// the connection's batch buffer while they fit, and leave in one Write. A
// frame with nothing behind it, and a frame the buffer has no room left for,
// is written as it is — so the buffer never grows, a large frame is never
// copied, and order on the wire is queue order. Each frame gives back its
// chunk reference once it is copied or written.
func (b *Broker) writeQueued(bc *brokerConn, f outFrame) error {
	batch := bc.batch[:0]
gather:
	for len(batch)+len(f.wire) <= frameChunk {
		select {
		case next := <-bc.out:
			b.observeQueueWait(bc, &next)
			if cap(batch) == 0 {
				batch = make([]byte, 0, frameChunk)
				bc.batch = batch
			}
			batch = append(batch, f.wire...)
			f.chunk.Release()
			f = next
		default:
			break gather
		}
	}
	defer f.chunk.Release()
	if len(batch) == 0 {
		return writeWire(bc.conn, f.wire)
	}
	if len(batch)+len(f.wire) <= frameChunk {
		return writeWire(bc.conn, append(batch, f.wire...))
	}
	if err := writeWire(bc.conn, batch); err != nil {
		return err
	}
	return writeWire(bc.conn, f.wire)
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
// metadata, a subscribe's answer) waits for queue space up to mustSendStall, because later
// frames are meaningless without it.
const (
	droppable = false
	mustSend  = true
)

// send queues payload as a frame of its own, stamped now: the way format,
// subscribe-answer, stream-list and error frames reach the writer loop.
func (bc *brokerConn) send(typ byte, payload []byte, must bool) (bool, error) {
	wire, err := newFrame(typ, payload)
	if err != nil {
		return false, err
	}
	return bc.enqueue(outFrame{wire: wire, enq: time.Now()}, must)
}

// enqueue queues f for the writer loop — the one way onto a connection's
// outbound queue. It reports whether the frame was queued (false with a nil
// error: dropped on a full queue, counted in the broker's drop counter).
func (bc *brokerConn) enqueue(f outFrame, must bool) (bool, error) {
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
		if r := st.route.Load(); slices.ContainsFunc(r.members(), func(m *member) bool { return m.bc == bc }) {
			st.route.Store(r.without(bc))
		}
	}
	return true
}

// drop tears a connection down: unregisters it, lets the writer flush its
// queued frames within the broker's write deadline, then closes the socket.
func (b *Broker) drop(bc *brokerConn) {
	first := b.unregister(bc)
	select {
	case <-bc.outClose:
	default:
		if first {
			close(bc.outClose)
		}
	}
	_ = bc.conn.SetWriteDeadline(time.Now().Add(b.writeDeadline))
	<-bc.writerDone
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
		for _, m := range st.route.Load().members() {
			seen[m.bc] = true
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
