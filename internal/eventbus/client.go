package eventbus

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/retry"
	"openmeta/internal/trace"
)

// clientRole is what tells a publisher's link from a subscriber's: the label
// its errors and protocol events carry, and its reconnect instruments on the
// default registry — created at init so the eventbus.pub.* / eventbus.sub.*
// names exist (zero-valued) in the default registry from process start.
type clientRole struct {
	name         string
	reconnects   *obsv.Counter
	redialErrors *obsv.Counter
}

var (
	rolePublisher = &clientRole{"publisher",
		obsv.Default().Counter("eventbus.pub.reconnects"), obsv.Default().Counter("eventbus.pub.redial_errors")}
	roleSubscriber = &clientRole{"subscriber",
		obsv.Default().Counter("eventbus.sub.reconnects"), obsv.Default().Counter("eventbus.sub.redial_errors")}
)

// DialFunc dials the broker. Tests substitute one (via WithDialFunc) that
// wraps the connection in a faultnet schedule.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

// clientConfig is shared by Publisher and Subscriber dialing.
type clientConfig struct {
	dial        DialFunc
	dialTimeout time.Duration
	reconnect   bool
	policy      retry.Policy
	rec         *trace.Recorder
}

func defaultClientConfig() clientConfig {
	return clientConfig{
		dialTimeout: 10 * time.Second,
		policy: retry.Policy{
			MaxAttempts: 5,
			Initial:     100 * time.Millisecond,
			Max:         5 * time.Second,
		},
		rec: trace.Default(),
	}
}

// brokerReason passes a publisher's write result through, first making a
// bounded attempt to read the frameError the broker sends before closing on
// a publisher it rejects — so a rejected publish surfaces as a typed
// *BrokerError instead of a bare write failure.
func brokerReason(conn net.Conn, err error) error {
	if err == nil {
		return nil
	}
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	var buf []byte
	for i := 0; i < 4; i++ {
		typ, payload, newBuf, rerr := readFrame(conn, buf)
		if rerr != nil {
			break
		}
		buf = newBuf
		if typ == frameError {
			return fmt.Errorf("%w (%w)", &BrokerError{Msg: string(payload)}, err)
		}
	}
	return err
}

// dialContext applies the configured dial function and timeout.
func (c *clientConfig) dialContext(ctx context.Context, addr string) (net.Conn, error) {
	if c.dialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.dialTimeout)
		defer cancel()
	}
	if c.dial != nil {
		return c.dial(ctx, "tcp", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// ClientOption configures how publishers and subscribers dial the broker
// and whether they survive broken connections.
type ClientOption func(*clientConfig)

// WithDialFunc substitutes the dialer — how tests interpose
// fault-injection wrappers, and how deployments add TLS or proxies.
func WithDialFunc(f DialFunc) ClientOption {
	return func(c *clientConfig) { c.dial = f }
}

// WithDialTimeout bounds each dial attempt (default 10s; 0 disables).
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.dialTimeout = d }
}

// WithClientRecorder directs the client's protocol events (connection
// churn, reconnect attempts and give-ups, format metadata) and spans
// (pub.publish, pbio.encode, pbio.decode) into r instead of the process
// default recorder. A record r samples carries its trace context across the
// wire.
func WithClientRecorder(r *trace.Recorder) ClientOption {
	return func(c *clientConfig) {
		if r != nil {
			c.rec = r
		}
	}
}

// WithReconnect enables automatic reconnection under the given retry
// policy: when the broker connection breaks, the client redials with
// backoff, re-announces its streams (publishers) or re-subscribes with
// scopes intact (subscribers), resets its format-metadata dedup state so
// metadata is re-sent on the fresh connection, and retries the failed
// operation. A zero Policy uses the retry package defaults (four attempts,
// 50ms initial backoff doubling to 5s).
func WithReconnect(p retry.Policy) ClientOption {
	return func(c *clientConfig) {
		c.reconnect = true
		c.policy = p
	}
}

// link is the client half of one broker connection — everything Publisher
// and Subscriber have in common: dialing, replaying the owner's state onto a
// fresh connection, teardown, and retry under the reconnect policy, with the
// counters and protocol events that go with them.
type link struct {
	role *clientRole
	addr string
	cfg  clientConfig
	// replay re-establishes the owner's state (announced streams,
	// subscriptions) on a connection that has just been dialed. Called with
	// mu held.
	replay func(conn net.Conn) error

	mu      sync.Mutex
	conn    net.Conn
	closed  bool
	lastErr error
	// unreported is a failed batched write's error, until a call returns it.
	unreported error
	// connID is the live conn's id in protocol events. Atomic because a
	// subscriber's receive loop reads it while control calls may be
	// reconnecting.
	connID atomic.Uint64
}

// record files one protocol event against the link's current connection id.
func (l *link) record(kind trace.Kind, stream string, format uint64, bytes int64, detail string) {
	l.cfg.rec.Record(kind, l.connID.Load(), stream, format, bytes, detail)
}

// open configures the link and makes its first connection. With
// WithReconnect the dial retries under the policy like any later reconnect.
func (l *link) open(ctx context.Context, role *clientRole, addr string, opts []ClientOption, replay func(net.Conn) error) error {
	l.role, l.addr, l.cfg, l.replay = role, addr, defaultClientConfig(), replay
	for _, opt := range opts {
		opt(&l.cfg)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.retry(ctx, l.connectLocked); err != nil {
		return fmt.Errorf("eventbus: dial %s: %w", role.name, err)
	}
	return nil
}

// retry runs attempt once, or under the retry policy when reconnect is on
// and the link is open. A give-up is a reconnect event carrying the number
// of attempts, filed against the link's last connection.
func (l *link) retry(ctx context.Context, attempt func(context.Context) error) error {
	if !l.cfg.reconnect || l.closed {
		return attempt(ctx)
	}
	attempts := 0
	err := retry.Do(ctx, l.cfg.policy, func(ctx context.Context) error {
		attempts++
		return attempt(ctx)
	})
	if errors.Is(err, retry.ErrExhausted) {
		l.record(trace.KindReconnect, "", 0, int64(attempts), l.role.name+" gave up: "+err.Error())
	}
	return err
}

// connectLocked dials a fresh broker connection and replays the owner's
// state onto it. Caller holds l.mu.
func (l *link) connectLocked(ctx context.Context) error {
	reconnecting := l.conn != nil || l.lastErr != nil
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn = nil
	}
	conn, err := l.cfg.dialContext(ctx, l.addr)
	if err == nil {
		err = l.replay(conn)
	}
	if err != nil {
		if conn != nil {
			_ = conn.Close()
		}
		if reconnecting {
			l.role.redialErrors.Add(1)
			l.record(trace.KindReconnect, "", 0, 0, l.role.name+" redial failed: "+err.Error())
		}
		return err
	}
	l.conn = conn
	l.connID.Store(trace.NextConnID())
	l.record(trace.KindConnOpen, "", 0, 0, l.role.name+" "+l.addr)
	l.lastErr, l.unreported = nil, nil
	if reconnecting {
		l.role.reconnects.Add(1)
		l.record(trace.KindReconnect, "", 0, 0, l.role.name+" reconnected")
	}
	return nil
}

// withConn runs op against a healthy connection, holding l.mu (frames from
// concurrent calls must not interleave; an op that releases it still has the
// connection to itself). On failure the connection is torn down; with
// reconnect enabled the link redials under its retry policy and re-runs op.
func (l *link) withConn(op func(conn net.Conn) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retry(context.Background(), func(ctx context.Context) error {
		if l.closed {
			return fmt.Errorf("eventbus: %s: %w", l.role.name, ErrClosed)
		}
		if l.conn == nil {
			if !l.cfg.reconnect {
				return l.lostLocked()
			}
			if err := l.connectLocked(ctx); err != nil {
				return err
			}
		}
		err := op(l.conn)
		if err != nil {
			l.teardownLocked(err)
		}
		return err
	})
}

// lostLocked is the error of a call that finds no connection: a failed
// batched write's, once, then ErrClosed. Caller holds l.mu.
func (l *link) lostLocked() (err error) {
	if err, l.unreported = l.unreported, nil; err == nil {
		err = fmt.Errorf("eventbus: %s connection lost: %w (%v)", l.role.name, ErrClosed, l.lastErr)
	}
	return err
}

// teardownLocked abandons the current connection after a failure; a
// partially written or read frame leaves the stream unframeable, so the
// connection can never be reused. Caller holds l.mu.
func (l *link) teardownLocked(err error) {
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn = nil
		l.record(trace.KindConnClose, "", 0, 0, err.Error())
	}
	l.lastErr = err
}

// Close closes the broker connection. Further operations return ErrClosed;
// a subscriber's blocked Next returns io.EOF.
func (l *link) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeLocked()
}

// closeLocked is Close for a caller that holds l.mu.
func (l *link) closeLocked() error {
	l.closed = true
	if l.conn == nil {
		return nil
	}
	err := l.conn.Close()
	l.conn = nil
	l.record(trace.KindConnClose, "", 0, 0, "closed")
	return err
}

// Publisher is a capture point: it announces streams and publishes NDR
// records onto them. Publisher is safe for concurrent use. With
// WithReconnect it transparently survives broken broker connections,
// re-sending stream announcements and format metadata on the new
// connection. A call writes its frames itself while the link is idle, and
// otherwise queues them for the link's writer (DESIGN.md §5).
type Publisher struct {
	link
	// Guarded by link.mu, as is everything below.
	sentFormats map[pbio.FormatID]bool
	formats     map[pbio.FormatID]*pbio.Format // every format published
	announced   map[string]bool

	batch, spare []byte // frames queued, in one frameChunk; the chunk the last write took
	tail         []byte // frames a failed write left unsent, for resend
	took         time.Duration
	ended        time.Time // when the last write ended, and how long it took
	fast         bool      // the last call to find the link idle came sooner after a write than it took
	writing      bool      // a write is in flight
	stop, exited bool      // the writer is to return; it has
	wake, room   sync.Cond // the writer waits on wake; calls, for room in the batch and for the writer
}

// DialPublisher connects a publisher to the broker at addr.
func DialPublisher(addr string, opts ...ClientOption) (*Publisher, error) {
	return DialPublisherContext(context.Background(), addr, opts...)
}

// DialPublisherContext connects a publisher to the broker at addr under
// ctx. With WithReconnect the initial dial also retries under the policy.
func DialPublisherContext(ctx context.Context, addr string, opts ...ClientOption) (*Publisher, error) {
	p := &Publisher{announced: make(map[string]bool), formats: make(map[pbio.FormatID]*pbio.Format)}
	p.wake.L, p.room.L = &p.mu, &p.mu
	if err := p.open(ctx, rolePublisher, addr, opts, p.reannounce); err != nil {
		return nil, err
	}
	go p.writeLoop()
	return p, nil
}

// reannounce replays the publisher's announced streams onto a fresh
// connection and adds what was queued to the tail resend writes. The
// format-metadata dedup map is reset so the next Publish of each format
// re-sends its metadata — the new broker connection has never seen it.
func (p *Publisher) reannounce(conn net.Conn) error {
	p.sentFormats = make(map[pbio.FormatID]bool)
	p.tail, p.batch = append(p.tail, p.batch...), p.batch[:0]
	for name := range p.announced {
		if err := writeFrame(conn, frameAnnounce, putStr(nil, name)); err != nil {
			return err
		}
	}
	return nil
}

// resend writes the tail on a fresh connection behind the metadata of every
// format published, which the tail's records may need. Caller holds mu.
func (p *Publisher) resend(conn net.Conn) error {
	if len(p.tail) == 0 {
		return nil
	}
	var b []byte
	for _, f := range p.formats {
		meta := pbio.MarshalMeta(f)
		b, _ = pbio.AppendFrame(b, frameFormat, meta, maxFrame)
		p.sentFormats[f.ID] = true
		p.record(trace.KindFormatSend, "", fid64(f.ID), int64(len(meta)), f.Name)
	}
	if err := writeWire(conn, append(b, p.tail...)); err != nil {
		return err
	}
	p.tail = nil
	return nil
}

// reserve waits until frames of n bytes, behind f's metadata if this
// connection has not carried it, can be queued, and returns what to append
// them to: the batch, or for more than it holds a buffer of their own once
// nothing is queued or in flight. The caller writes them itself (inline)
// when the link is idle, unless the last two calls to find it idle both came
// sooner after a write than that write took. Caller holds mu, which waiting
// releases.
func (p *Publisher) reserve(n int, f *pbio.Format) (b, meta []byte, inline bool, err error) {
	if err := p.resend(p.conn); err != nil {
		return nil, nil, false, err
	}
	for {
		need := n
		if meta = nil; f != nil && !p.sentFormats[f.ID] {
			meta = pbio.MarshalMeta(f)
			need += pbio.FrameHeaderLen + len(meta)
		}
		idle := !p.writing && len(p.batch) == 0
		if idle && need > frameChunk {
			return make([]byte, 0, need), meta, true, nil
		}
		if idle || len(p.batch)+need <= frameChunk {
			if cap(p.batch) == 0 {
				p.batch = make([]byte, 0, frameChunk)
			}
			if idle {
				fast := time.Since(p.ended) <= p.took
				inline, p.fast = !fast || !p.fast, fast
			}
			return p.batch, meta, inline, nil
		}
		if p.room.Wait(); p.conn == nil || p.exited {
			return nil, nil, false, p.lostLocked()
		}
	}
}

// put writes b, the batch with the caller's frames appended or a buffer of
// their own, when inline; else it leaves them queued, and wakes the writer
// unless the write in flight will. Caller holds mu.
func (p *Publisher) put(b []byte, inline bool) error {
	if len(b) <= frameChunk {
		if p.batch, b = b, nil; !inline {
			if !p.writing {
				p.wake.Signal()
			}
			return nil
		}
	}
	_, err := p.write(b)
	return err
}

// write sends b, or the batch when b is nil, with mu released, as the one
// write in flight, and times it. A failure, folded through brokerReason,
// tears the connection down. Caller holds mu and a live connection.
func (p *Publisher) write(b []byte) (int, error) {
	if b == nil { // the batch goes, and the other chunk takes its place
		b, p.batch, p.spare = p.batch, p.spare[:0], p.batch
	}
	conn := p.conn
	p.writing = true
	p.mu.Unlock()
	start := time.Now()
	n, err := conn.Write(b)
	end := time.Now()
	if err != nil {
		err = brokerReason(conn, fmt.Errorf("eventbus: write frame: %w", err))
	}
	p.mu.Lock()
	p.writing, p.took, p.ended = false, end.Sub(start), end
	p.room.Broadcast()
	if err != nil {
		p.teardownLocked(err)
	}
	if len(p.batch) > 0 || p.stop {
		p.wake.Signal()
	}
	return n, err
}

// writeLoop is the link's writer: whenever no other write is in flight it
// sends everything queued in one Write, through withConn like any call
// (after Close, without redialing), and it waits while there is nothing to
// send. Once stopped, it returns when nothing is left that it can send.
func (p *Publisher) writeLoop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		switch {
		case len(p.batch) > 0 && !p.writing && p.conn != nil && p.closed:
			_ = p.flush(p.conn)
		case len(p.batch) > 0 && !p.writing && p.conn != nil:
			p.mu.Unlock()
			_ = p.withConn(p.flush)
			p.mu.Lock()
		case p.stop && !p.writing:
			p.exited = true
			p.room.Broadcast()
			return
		default:
			p.wake.Wait()
		}
	}
}

// flush sends the tail, if a redial left one, and then the batch. A failed
// write leaves the frames it did not wholly send as the tail and its error
// for the next call; with reconnect, withConn redials and runs flush again.
// Caller holds mu.
func (p *Publisher) flush(conn net.Conn) error {
	if err := p.resend(conn); err != nil || len(p.batch) == 0 {
		return err
	}
	b := p.batch
	n, err := p.write(nil)
	if err != nil {
		sent := 0 // the frames wholly inside the n bytes written
		for sent < len(b) && sent+frameLen(b[sent:]) <= n {
			sent += frameLen(b[sent:])
		}
		p.tail, p.unreported = b[sent:], err
	}
	return err
}

// frameLen is the length of the frame at the front of b.
func frameLen(b []byte) int { return pbio.FrameHeaderLen + int(binary.BigEndian.Uint32(b[1:])) }

// Close has the writer send what is queued and return, then closes the
// connection. It returns a failed batched write's error that no call has
// returned. Further operations return ErrClosed.
func (p *Publisher) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed, p.stop = true, true
	for p.wake.Signal(); !p.exited; {
		p.room.Wait()
	}
	err := p.unreported
	p.unreported = nil
	return errors.Join(err, p.closeLocked())
}

// Announce declares a stream so it appears in broker listings before the
// first record is published. Announced streams are re-announced
// automatically after a reconnect.
func (p *Publisher) Announce(streamName string) error {
	return p.withConn(func(net.Conn) error {
		payload := putStr(nil, streamName)
		b, _, inline, err := p.reserve(pbio.FrameHeaderLen+len(payload), nil)
		if err != nil {
			return err
		}
		b, _ = pbio.AppendFrame(b, frameAnnounce, payload, maxFrame)
		p.announced[streamName] = true
		return p.put(b, inline)
	})
}

// Publish sends one encoded record of format f onto the stream, announcing
// the format's metadata to the broker the first time (and again after any
// reconnect — the fresh broker connection has no memory of it). When the
// client's recorder samples the record, it travels with its trace context so
// every downstream stage links into one span tree.
//
// Publish returns once the record is written when the link is idle. When
// records come faster than the socket takes them, it returns once the
// record is queued, and the link's writer sends it: an error of that write
// is returned by the next call, and Close sends what is still queued.
func (p *Publisher) Publish(streamName string, f *pbio.Format, record []byte) error {
	tc := p.cfg.rec.Start(trace.KindPublish)
	defer tc.Finish(streamName)
	return p.publish(tc, streamName, f, record)
}

// publish writes or queues one publish frame, behind its format's metadata
// frame if the connection has not carried it, under the given root span.
func (p *Publisher) publish(tc trace.Ctx, streamName string, f *pbio.Format, record []byte) error {
	return p.withConn(func(net.Conn) error {
		typ, n := framePublish, pbio.FrameHeaderLen+2+len(streamName)+8+len(record)
		if tc.Sampled() {
			typ, n = framePublishTrace, n+traceCtxLen
		}
		b, meta, inline, err := p.reserve(n, f)
		if err != nil {
			return err
		}
		if meta != nil {
			b, _ = pbio.AppendFrame(b, frameFormat, meta, maxFrame)
		}
		start := len(b)
		b = putStr(pbio.BeginFrame(b), streamName)
		if tc.Sampled() {
			b = putTraceCtx(b, tc.Trace(), tc.Span())
		}
		b = append(append(b, f.ID[:]...), record...)
		if err := pbio.EndFrame(b[start:], typ, maxFrame); err != nil {
			return err
		}
		if meta != nil {
			p.sentFormats[f.ID], p.formats[f.ID] = true, f
			p.record(trace.KindFormatSend, streamName, fid64(f.ID), int64(len(meta)), f.Name)
		}
		return p.put(b, inline)
	})
}

// PublishRecord encodes a generic record and publishes it. A sampled record
// gets a pbio.encode child span around the encode.
func (p *Publisher) PublishRecord(streamName string, f *pbio.Format, rec pbio.Record) error {
	tc := p.cfg.rec.Start(trace.KindPublish)
	defer tc.Finish(streamName)
	data, err := f.EncodeCtx(tc, rec)
	if err != nil {
		return err
	}
	return p.publish(tc, streamName, f, data)
}

// Event is one record delivered to a subscriber.
type Event struct {
	// Stream is the stream the record was published on.
	Stream string
	// Format is the record's format, reconstructed from metadata the broker
	// delivered ahead of the record.
	Format *pbio.Format
	// Data is the NDR record, owned by the caller: an append reallocates. A
	// record of up to 4 KiB is a slice of the chunk it was read in, which a
	// held event keeps alive (at most 64 KiB).
	Data []byte
	// Trace is the record's trace handle when it arrived in a traced frame
	// and the subscriber's recorder samples: Decode records a pbio.decode
	// child span, and callers can hang their own processing spans off it
	// with Trace.Child. The zero value (untraced record) is a no-op.
	Trace trace.Ctx
}

// Decode unmarshals the event's record generically. For a traced event the
// decode is recorded as a pbio.decode span linked under the broker's
// routing span.
func (e *Event) Decode() (pbio.Record, error) { return e.Format.DecodeCtx(e.Trace, e.Data) }

// Subscriber is a data access or display point: it subscribes to streams
// and receives their records together with the metadata needed to decode
// them. Next, Subscribe, SubscribeFields and Streams read the connection, so
// they must be called from one goroutine and never interleaved: subscribe
// before the Next loop starts, or from the goroutine that runs it.
// Unsubscribe and Close are safe to call from others. With WithReconnect a
// subscriber whose broker connection breaks redials with backoff and
// re-subscribes to every stream (scopes intact); the broker re-sends format
// metadata on the new connection, so Next keeps delivering decodable events.
type Subscriber struct {
	link
	ctx *pbio.Context
	// subs maps stream name to its field scope (nil = full format), the
	// state replayed onto a fresh connection after reconnect. Guarded by
	// link.mu.
	subs map[string][]string

	// Receive-side state, touched only by the goroutine that reads: the
	// frame reader over rdConn, the event frames that arrived while an
	// answer was awaited, which Next returns first, and the last event's
	// stream name, which the next event reuses when it names the same
	// stream.
	rd      *pbio.FrameReader
	rdConn  net.Conn
	pending [][]byte
	stream  string
}

// DialSubscriber connects a subscriber to the broker at addr, adopting
// incoming format metadata into ctx.
func DialSubscriber(addr string, ctx *pbio.Context, opts ...ClientOption) (*Subscriber, error) {
	return DialSubscriberContext(context.Background(), addr, ctx, opts...)
}

// DialSubscriberContext connects a subscriber to the broker at addr under
// dialCtx, adopting incoming format metadata into ctx.
func DialSubscriberContext(dialCtx context.Context, addr string, ctx *pbio.Context, opts ...ClientOption) (*Subscriber, error) {
	s := &Subscriber{ctx: ctx, subs: make(map[string][]string)}
	if err := s.open(dialCtx, roleSubscriber, addr, opts, s.resubscribe); err != nil {
		return nil, err
	}
	return s, nil
}

// Context returns the pbio context formats are adopted into.
func (s *Subscriber) Context() *pbio.Context { return s.ctx }

// resubscribe replays every subscription (with its scope) onto a fresh
// connection. The broker's answers to them are stale when they arrive, and
// the receive loop skips them.
func (s *Subscriber) resubscribe(conn net.Conn) error {
	for name, scope := range s.subs {
		if err := writeFrame(conn, frameSubscribe, subscribePayload(name, scope)); err != nil {
			return err
		}
	}
	return nil
}

// subscribePayload encodes a subscribe frame for name with an optional
// field scope.
func subscribePayload(name string, fields []string) []byte {
	payload := putStr(nil, name)
	if len(fields) > 0 {
		payload = append(payload, byte(len(fields)))
		for _, f := range fields {
			payload = putStr(payload, f)
		}
	}
	return payload
}

// control sends one control frame, redialing under the retry policy when
// reconnect is enabled, and once the frame is written applies its effect on
// the state replayed after a reconnect (under s.mu, which withConn holds).
func (s *Subscriber) control(typ byte, payload []byte, applied func()) error {
	return s.withConn(func(conn net.Conn) error {
		err := writeFrame(conn, typ, payload)
		if err == nil && applied != nil {
			applied()
		}
		return err
	})
}

// Subscribe joins a stream and returns once the broker routes it to this
// subscriber: every record published after it returns (and the formats
// needed to decode it) will be delivered via Next. Subscriptions are
// replayed automatically after a reconnect.
func (s *Subscriber) Subscribe(streamName string) error { return s.SubscribeFields(streamName) }

// SubscribeFields joins a stream scoped to a slice of its fields — the
// paper's §4.4 format-scoping. The broker derives a subset format, converts
// every record before delivery, and the hidden fields never reach this
// subscriber. Count fields of kept dynamic arrays are included
// automatically. With no fields it is Subscribe. Like Subscribe it returns
// once the broker routes the subscription; a scope the broker cannot cut
// from a format the stream already carries is its *BrokerError.
func (s *Subscriber) SubscribeFields(streamName string, fields ...string) error {
	if len(fields) > 255 {
		return fmt.Errorf("eventbus: scope of %d fields exceeds protocol limit", len(fields))
	}
	scope := append([]string(nil), fields...) // nil = the full format
	if err := s.control(frameSubscribe, subscribePayload(streamName, scope), func() { s.subs[streamName] = scope }); err != nil {
		return err
	}
	// A redial replays the subscription, so the answer comes on the new
	// connection too.
	_, err := s.receive(s.cfg.reconnect, func(typ byte, payload []byte) bool {
		name, _, err := getBytes(payload)
		return typ == frameSubscribed && err == nil && string(name) == streamName
	})
	return err
}

// Unsubscribe leaves a stream. Records already in flight may still arrive.
func (s *Subscriber) Unsubscribe(streamName string) error {
	return s.control(frameUnsub, putStr(nil, streamName), func() { delete(s.subs, streamName) })
}

// recvConn returns the connection the receive loop should read from and the
// frame reader over it, which goes, with the frames its chunk still holds,
// when the link replaces the connection. If broken — the connection a read
// just failed on, with cause — is still the live one it is torn down first
// (another goroutine may already have replaced it), and a link left without
// a connection is redialed and re-subscribed under the retry policy. io.EOF
// reports a closed subscriber.
func (s *Subscriber) recvConn(broken net.Conn, cause error) (net.Conn, *pbio.FrameReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, io.EOF
	}
	if broken != nil && s.conn == broken {
		s.teardownLocked(cause)
	}
	if s.conn == nil {
		if !s.cfg.reconnect {
			return nil, nil, fmt.Errorf("eventbus: subscriber connection lost: %w", ErrClosed)
		}
		if err := s.retry(context.Background(), s.connectLocked); err != nil {
			return nil, nil, fmt.Errorf("eventbus: reconnect: %w", err)
		}
	}
	if s.rdConn != s.conn {
		s.rd, s.rdConn = pbio.NewFrameReader(s.conn, maxFrame, nil), s.conn
	}
	return s.conn, s.rd, nil
}

// read returns the next frame off the connection. When redial is set a
// failed read redials under the retry policy, which replays every
// subscription, and reading goes on on the new connection. io.EOF reports a
// closed subscriber — or, without redial, a connection the broker closed.
func (s *Subscriber) read(redial bool) ([]byte, error) {
	var broken net.Conn
	var cause error
	for {
		conn, rd, err := s.recvConn(broken, cause)
		if err != nil {
			return nil, err
		}
		frame, _, err := rd.Next()
		if err == nil {
			return frame, nil
		}
		if redial {
			broken, cause = conn, err // recvConn redials, or reports a Close that raced the read
			continue
		}
		if _, _, cerr := s.recvConn(nil, nil); cerr == io.EOF || errors.Is(err, net.ErrClosed) {
			return nil, io.EOF // our own Close raced the read
		}
		return nil, err
	}
}

// receive reads frames until one that want accepts, and returns it. On the
// way it adopts formats, keeps event frames in order for Next, skips answers
// nobody awaits (those to replayed subscriptions, or a stale stream list),
// and returns a frameError as the *BrokerError it carries.
func (s *Subscriber) receive(redial bool, want func(typ byte, payload []byte) bool) ([]byte, error) {
	for {
		frame, err := s.read(redial)
		if err != nil {
			return nil, err
		}
		typ, payload := frame[0], frame[pbio.FrameHeaderLen:]
		if want(typ, payload) {
			return frame, nil
		}
		switch typ {
		case frameFormat:
			if err := s.adoptFormat(payload); err != nil {
				return nil, err
			}
		case frameEvent, frameEventTrace:
			s.pending = append(s.pending, frame)
		case frameError:
			return nil, &BrokerError{Msg: string(payload)}
		case frameStreams, frameSubscribed:
		default:
			return nil, fmt.Errorf("%w: unexpected frame %d", ErrBadFrame, typ)
		}
	}
}

// Streams asks the broker for the current stream list. Like Subscribe it
// reads the connection for its answer, so it must not be interleaved with
// Next.
func (s *Subscriber) Streams() ([]string, error) {
	if err := s.control(frameList, nil, nil); err != nil {
		return nil, err
	}
	// A redial would not repeat the request: the read error is returned.
	frame, err := s.receive(false, func(typ byte, _ []byte) bool { return typ == frameStreams })
	if err != nil {
		return nil, err
	}
	if len(frame) == pbio.FrameHeaderLen {
		return nil, nil
	}
	return strings.Split(string(frame[pbio.FrameHeaderLen:]), "\x00"), nil
}

// isEvent is what Next waits for.
func isEvent(typ byte, _ []byte) bool { return typ == frameEvent || typ == frameEventTrace }

// Next blocks until the next record arrives and returns it. Format frames
// are absorbed transparently. Returns io.EOF when the subscriber is closed
// — or, without reconnect, when the broker closes the connection. With
// reconnect enabled a broken connection is redialed under the retry policy
// and the receive loop continues on the new connection.
func (s *Subscriber) Next() (Event, error) {
	var frame []byte
	if len(s.pending) > 0 {
		frame, s.pending[0] = s.pending[0], nil
		s.pending = s.pending[1:]
	} else {
		var err error
		if frame, err = s.receive(s.cfg.reconnect, isEvent); err != nil {
			return Event{}, err
		}
	}
	typ, payload := frame[0], frame[pbio.FrameHeaderLen:]
	name, rest, err := getBytes(payload)
	if err != nil {
		return Event{}, err
	}
	if string(name) != s.stream {
		s.stream = string(name)
	}
	var etc trace.Ctx
	if typ == frameEventTrace {
		var tid trace.TraceID
		var parent trace.SpanID
		if tid, parent, rest, err = getTraceCtx(rest); err != nil {
			return Event{}, err
		}
		etc = s.cfg.rec.Join(tid, parent)
	}
	if len(rest) < 8 {
		return Event{}, fmt.Errorf("%w: event without format id", ErrBadFrame)
	}
	var id pbio.FormatID
	copy(id[:], rest)
	f, ok := s.ctx.LookupID(id)
	if !ok {
		return Event{}, fmt.Errorf("eventbus: event references unknown format %s", id)
	}
	return Event{Stream: s.stream, Format: f, Data: rest[8:], Trace: etc}, nil
}

func (s *Subscriber) adoptFormat(meta []byte) error {
	f, err := pbio.UnmarshalMeta(meta)
	if err != nil {
		return err
	}
	s.record(trace.KindFormatRecv, "", fid64(f.ID), int64(len(meta)), f.Name)
	_, err = s.ctx.Adopt(f)
	return err
}
