package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"openmeta/internal/core"
	"openmeta/internal/dcg"
	"openmeta/internal/eventbus"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/xmlschema"
)

const (
	streamName = "bench"
	// window is the number of records in flight during saturate. It is under
	// the broker's default queue depth of 256, so any drop is a failure.
	window = 128
	// warmupRecords are published, delivered and verified before any timing.
	warmupRecords = 2000
	// setupRuns is how often a run sets the system up; setup_s is the median.
	setupRuns = 9
	// slices is the number of slices each timed phase is cut into. Timing
	// metrics are taken per slice and reported as their quiet quartile.
	slices = 16
	// stallAfter is how long the publisher waits for a delivery before it
	// counts the record as lost and goes on.
	stallAfter = 2 * time.Second
)

// subKind is what a subscriber does with a record.
type subKind int

const (
	subPlain   subKind = iota // same architecture: decode
	subScoped                 // SubscribeFields(seq, d0, d1): the broker projects
	subConvert                // Sparc64 receiver: dcg convert, then decode
)

// busSpec describes one bus workload.
type busSpec struct {
	name  string
	shape shape
	// typed selects Format.Bind / Binding.Encode / Binding.Decode for the
	// publisher and the plain subscriber, in place of generic Records.
	typed bool
	subs  []subKind
}

var scopedFields = []string{"seq", "d0", "d1"}

var busSpecs = map[string]busSpec{
	"small_plain": {
		name:  "small_plain",
		shape: shape{typeName: "SmallPlain", ints: 4, dbls: 4, strs: 2, strN: 8},
		subs:  []subKind{subPlain},
	},
	"large_convert": {
		name:  "large_convert",
		shape: shape{typeName: "LargeConvert", ints: 20, dbls: 20, strs: 8, strN: 32, arr: 1200},
		subs:  []subKind{subConvert},
	},
	"fanout_mixed": {
		name:  "fanout_mixed",
		shape: fanoutShape,
		typed: true,
		subs:  []subKind{subPlain, subScoped, subConvert},
	},
}

// countingConn counts the bytes that cross a client socket, frame headers
// included.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// phase is what the generator and the subscribers do with each record until
// the generator installs the next phase.
type phase struct {
	name   string
	window int64
	timed  bool // take one latency sample per delivery
	traced bool // record spans for 1 record in sampleEvery, and waiting times
}

// failures counts deliveries that went wrong, by cause.
type failures struct {
	Missing    int64 `json:"missing"`     // published but never delivered
	Decode     int64 `json:"decode"`      // Next, Convert or Decode returned an error
	Mismatch   int64 `json:"mismatch"`    // wrong seq, sum, field set or value
	Publish    int64 `json:"publish"`     // Publish returned an error
	BrokerDrop int64 `json:"broker_drop"` // Broker.Stats().Dropped
}

func (f failures) total() int64 {
	return f.Missing + f.Decode + f.Mismatch + f.Publish + f.BrokerDrop
}

func (f failures) plus(g failures) failures {
	return failures{f.Missing + g.Missing, f.Decode + g.Decode, f.Mismatch + g.Mismatch, f.Publish + g.Publish, f.BrokerDrop + g.BrokerDrop}
}

// busSub is one subscriber connection and the goroutine that drains it.
type busSub struct {
	idx  int
	kind subKind
	run  *busRun
	conn *eventbus.Subscriber
	chk  checker

	// A run carries one format, so the subscriber compiles its plan, or binds
	// its struct, when the first record shows what that format is.
	dst     *pbio.Format  // subConvert: the local Sparc64 format
	plan    *dcg.Plan     // subConvert
	bind    *pbio.Binding // typed subPlain
	out     fanoutRecord  // typed subPlain: decode target, reused
	compile time.Duration // subConvert: time inside dcg.Compile

	// received counts events handled, failed ones included, plus records the
	// generator gave up as lost; it is what the generator's window waits on.
	received atomic.Int64
	fatal    error // set before done is closed
	done     chan struct{}

	// Written by the subscriber goroutine, read by the generator only after
	// it has seen received catch up with published.
	fails    failures
	lat      []int64 // ns, one per delivery of a timed phase
	ndrBytes int64
	nextWait time.Duration // traced phases: time blocked in Next
	busy     time.Duration // traced phases: time from Next returning to the record verified
	log      spanLog
}

// busRun is one set-up system: broker, publisher, subscribers.
type busRun struct {
	spec    busSpec
	wrap    func(net.Conn) net.Conn // see config.wrapConn
	broker  *eventbus.Broker
	pub     *eventbus.Publisher
	format  *pbio.Format
	binding *pbio.Binding // typed
	ring    []pbio.Record
	typed   []fanoutRecord
	subs    []*busSub

	wire   atomic.Int64 // bytes across all client sockets
	phase  atomic.Pointer[phase]
	starts [ringSize]atomic.Int64 // ns since epoch at which record seq%ringSize started
	wake   chan struct{}
	stop   chan struct{} // closes the watchdog
	wdDone chan struct{}
	// published is the number of records sent so far, which is the next seq.
	// Only the generator writes it. stalledAt is the watchdog's verdict: the
	// value of published+1 at which deliveries stopped arriving, 0 for none.
	published atomic.Int64
	stalledAt atomic.Int64

	epoch    time.Time
	ndrBytes int64
	fails    failures
	log      spanLog

	parse, register time.Duration // publisher-side set-up steps
}

func (r *busRun) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if r.wrap != nil {
		c = r.wrap(c)
	}
	return countingConn{Conn: c, n: &r.wire}, nil
}

// registerDoc is core.RegisterDocument with its two steps timed apart.
func registerDoc(ctx *pbio.Context, doc string) (*core.FormatSet, time.Duration, time.Duration, error) {
	t0 := time.Now()
	s, err := xmlschema.ParseString(doc)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	set, err := core.RegisterSchema(ctx, s)
	return set, t1.Sub(t0), time.Since(t1), err
}

// setUpBus brings one system up from schema text to a warmed-up stream and
// reports how long that took. Inputs (document, rings) are made before the
// clock starts: they are the harness's work, not the system's.
func setUpBus(spec busSpec, cfg config) (*busRun, time.Duration, error) {
	seed := cfg.seed
	doc := spec.shape.schemaDoc(seed)
	r := &busRun{
		spec: spec, wrap: cfg.wrapConn,
		ring:   spec.shape.ring(seed),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		wdDone: make(chan struct{}),
		epoch:  time.Now(),
	}
	r.log.epoch = r.epoch
	if spec.typed {
		r.typed = typedRing(r.ring)
	}
	for i, kind := range spec.subs {
		s := &busSub{idx: i, kind: kind, run: r, done: make(chan struct{})}
		s.chk = newChecker(spec, kind, seed)
		s.lat = make([]int64, 0, 1<<14)
		s.log.epoch = r.epoch
		r.subs = append(r.subs, s)
	}

	start := time.Now()
	ok := false
	defer func() {
		if !ok {
			r.tearDown()
		}
	}()

	pubCtx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		return nil, 0, err
	}
	set, parse, register, err := registerDoc(pubCtx, doc)
	if err != nil {
		return nil, 0, fmt.Errorf("register %s: %w", spec.shape.typeName, err)
	}
	r.parse, r.register = parse, register
	r.format = set.Root()
	if spec.typed {
		if r.binding, err = r.format.Bind(fanoutRecord{}); err != nil {
			return nil, 0, err
		}
	}

	if r.broker, err = eventbus.Listen("127.0.0.1:0"); err != nil {
		return nil, 0, err
	}
	addr := r.broker.Addr().String()
	for _, s := range r.subs {
		arch := machine.X86_64
		if s.kind == subConvert {
			arch = machine.Sparc64
		}
		ctx, err := pbio.NewContext(arch)
		if err != nil {
			return nil, 0, err
		}
		if s.kind == subConvert {
			dset, err := core.RegisterDocument(ctx, []byte(doc))
			if err != nil {
				return nil, 0, err
			}
			s.dst = dset.Root()
		}
		if s.conn, err = eventbus.DialSubscriber(addr, ctx, eventbus.WithDialFunc(r.dial)); err != nil {
			return nil, 0, err
		}
		if s.kind == subScoped {
			err = s.conn.SubscribeFields(streamName, scopedFields...)
		} else {
			err = s.conn.Subscribe(streamName)
		}
		if err != nil {
			return nil, 0, err
		}
		// The broker answers frames of one connection in order, so the
		// stream list coming back proves the subscription is in place.
		if _, err := s.conn.Streams(); err != nil {
			return nil, 0, err
		}
	}
	if r.pub, err = eventbus.DialPublisher(addr, eventbus.WithDialFunc(r.dial)); err != nil {
		return nil, 0, err
	}
	for _, s := range r.subs {
		go s.loop()
	}
	go r.watchdog()

	// The first record carries the format handshake and makes the converting
	// subscriber compile its plan; the rest fill caches and grow buffers.
	r.drive(&phase{name: "warmup", window: window}, 0, warmupRecords)
	if err := r.fatal(); err != nil {
		return nil, 0, err
	}
	ok = true
	return r, time.Since(start), nil
}

// tearDown closes everything and waits for every goroutine the run started.
func (r *busRun) tearDown() {
	if r.pub != nil {
		_ = r.pub.Close()
	}
	for _, s := range r.subs {
		if s.conn != nil {
			_ = s.conn.Close()
		}
	}
	if r.pub != nil { // the goroutines start right after the publisher dials
		for _, s := range r.subs {
			<-s.done
		}
		close(r.stop)
		<-r.wdDone
	}
	if r.broker != nil {
		_ = r.broker.Close()
	}
}

func (r *busRun) fatal() error {
	for _, s := range r.subs {
		select {
		case <-s.done:
			if s.fatal != nil {
				return fmt.Errorf("subscriber %d: %w", s.idx, s.fatal)
			}
			return fmt.Errorf("subscriber %d stopped", s.idx)
		default:
		}
	}
	return nil
}

// tally returns the deliveries the run attempted and the failures among them.
// Call it only while the subscribers are idle or gone.
func (r *busRun) tally() (int64, failures) {
	f := r.fails
	f.Missing += r.outstanding() // a run cut short leaves these behind
	for _, s := range r.subs {
		f = f.plus(s.fails)
	}
	return r.published.Load() * int64(len(r.subs)), f
}

// poke wakes the generator if it is waiting.
func (r *busRun) poke() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// watchdog notices when records are outstanding and nothing has moved for
// stallAfter, so that a lost record costs a wait and a failure count and does
// not hang the run. It costs the hot path nothing: the generator never arms
// a timer.
func (r *busRun) watchdog() {
	defer close(r.wdDone)
	const ticks = 8
	t := time.NewTicker(stallAfter / ticks)
	defer t.Stop()
	var lastPub, lastRecv int64
	idle := 0
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		pub, recv := r.published.Load(), int64(0)
		for _, s := range r.subs {
			recv += s.received.Load()
		}
		if pub != lastPub || recv != lastRecv || recv == pub*int64(len(r.subs)) {
			lastPub, lastRecv, idle = pub, recv, 0
			continue
		}
		if idle++; idle >= ticks {
			idle = 0
			r.stalledAt.Store(pub + 1)
			r.poke()
		}
	}
}

// outstanding is the number of published records the slowest subscriber has
// not handled yet.
func (r *busRun) outstanding() int64 {
	pub, most := r.published.Load(), int64(0)
	for _, s := range r.subs {
		most = max(most, pub-s.received.Load())
	}
	return most
}

// await blocks until fewer than limit records are outstanding. It returns
// false when a subscriber has died and the run cannot go on.
func (r *busRun) await(limit int64) bool {
	for r.outstanding() >= limit {
		// A verdict reached at an earlier published count is stale: records
		// have moved since.
		if r.stalledAt.Swap(0) == r.published.Load()+1 {
			for _, s := range r.subs {
				lost := r.published.Load() - s.received.Load()
				s.received.Add(lost)
				r.fails.Missing += lost
			}
			continue
		}
		if r.fatal() != nil {
			return false
		}
		<-r.wake
	}
	return true
}

// phaseStats is what the generator measured over one phase.
type phaseStats struct {
	published int64
	elapsed   time.Duration
	blocked   time.Duration // traced: time the generator waited on the window
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
	wire      int64
	ndr       int64 // NDR bytes published and delivered
}

// rate is records per second over the phase.
func (a phaseStats) rate() float64 { return float64(a.published) / a.elapsed.Seconds() }

func (a phaseStats) plus(b phaseStats) phaseStats {
	a.published += b.published
	a.elapsed += b.elapsed
	a.blocked += b.blocked
	a.cpu += b.cpu
	a.mallocs += b.mallocs
	a.allocated += b.allocated
	a.wire += b.wire
	a.ndr += b.ndr
	return a
}

// encode turns ring entry seq%ringSize into the NDR record for seq.
func (r *busRun) encode(seq int64) ([]byte, error) {
	slot := seq % ringSize
	if r.spec.typed {
		r.typed[slot].Seq = seq
		return r.binding.Encode(&r.typed[slot])
	}
	r.ring[slot]["seq"] = seq
	return r.format.Encode(r.ring[slot])
}

// drive is the closed loop: one generator, at most ph.window records in
// flight. It runs for dur, or for exactly count records when count > 0, then
// waits until every subscriber has handled everything published.
func (r *busRun) drive(ph *phase, dur time.Duration, count int64) phaseStats {
	r.phase.Store(ph)
	var st phaseStats
	subNDR := func() (n int64) {
		for _, s := range r.subs {
			n += s.ndrBytes
		}
		return n
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, wire0, ndr0, first := cpuTime(), r.wire.Load(), r.ndrBytes+subNDR(), r.published.Load()
	start := time.Now()
	deadline := start.Add(dur)

	for {
		seq := r.published.Load()
		if count > 0 && seq-first >= count {
			break
		}
		sampled := ph.traced && seq%sampleEvery == 0
		var t0 time.Time
		if ph.timed || sampled || (count == 0 && seq%32 == 0) {
			t0 = time.Now()
			if count == 0 && !t0.Before(deadline) {
				break
			}
			r.starts[seq%ringSize].Store(t0.Sub(r.epoch).Nanoseconds())
		}
		data, err := r.encode(seq)
		if err != nil {
			r.fails.Publish++
			break
		}
		var t1 time.Time
		if sampled {
			t1 = time.Now()
		}
		err = r.pub.Publish(streamName, r.format, data)
		if sampled {
			t2 := time.Now()
			r.log.add("pbio.encode", ph.name, seq, -1, t0, t1)
			r.log.add("eventbus.publish", ph.name, seq, -1, t1, t2)
		}
		if err != nil {
			r.fails.Publish++
			break
		}
		r.published.Store(seq + 1)
		r.ndrBytes += int64(len(data))

		if r.outstanding() >= ph.window {
			var b0 time.Time
			if ph.traced {
				b0 = time.Now()
			}
			alive := r.await(ph.window)
			if ph.traced {
				st.blocked += time.Since(b0)
			}
			if !alive {
				break
			}
		}
	}
	r.await(1)
	st.elapsed = time.Since(start)
	st.published = r.published.Load() - first
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	st.mallocs, st.allocated = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	st.wire = r.wire.Load() - wire0
	st.ndr = r.ndrBytes + subNDR() - ndr0
	return st
}

// loop is the subscriber: a sink that converts, decodes and verifies every
// record, then tells the generator.
func (s *busSub) loop() {
	defer close(s.done)
	defer s.run.poke()
	r := s.run
	var idleSince time.Time
	var idlePhase *phase
	for {
		ev, err := s.conn.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.fatal = err
			}
			return
		}
		ph := r.phase.Load()
		var tNext time.Time
		if ph.traced {
			tNext = time.Now()
			if idlePhase == ph {
				s.nextWait += tNext.Sub(idleSince)
			}
		}
		s.ndrBytes += int64(len(ev.Data))
		seq, tConv, tDec, ok := s.handle(&ev, ph.traced)
		if ph.timed || ph.traced {
			tEnd := time.Now()
			if ph.timed && ok {
				s.lat = append(s.lat, tEnd.Sub(r.epoch).Nanoseconds()-r.starts[seq%ringSize].Load())
			}
			if ph.traced {
				s.busy += tEnd.Sub(tNext)
				idleSince, idlePhase = tEnd, ph
				if ok && seq%sampleEvery == 0 {
					t0 := r.epoch.Add(time.Duration(r.starts[seq%ringSize].Load()))
					s.log.add("record", ph.name, seq, s.idx, t0, tEnd)
					s.log.add("next", ph.name, seq, s.idx, tNext, tNext) // marks Next returning
					if s.kind == subConvert {
						s.log.add("dcg.convert", ph.name, seq, s.idx, tNext, tConv)
					}
					s.log.add("pbio.decode", ph.name, seq, s.idx, tConv, tDec)
					s.log.add("verify", ph.name, seq, s.idx, tDec, tEnd)
				}
			}
		}
		s.received.Add(1)
		r.poke()
	}
}

// handle converts, decodes and verifies one event. It returns the record's
// seq, the times at which conversion and decoding ended (when stamped), and
// whether the record could be read at all.
func (s *busSub) handle(ev *eventbus.Event, stamped bool) (seq int64, tConv, tDec time.Time, ok bool) {
	data, f := ev.Data, ev.Format
	now := func() time.Time {
		if stamped {
			return time.Now()
		}
		return time.Time{}
	}
	unreadable := func() (int64, time.Time, time.Time, bool) {
		s.fails.Decode++
		s.chk.nextSeq++ // it was some record: do not count the gap against the next one too
		return 0, tConv, tDec, false
	}
	if s.kind == subConvert {
		if s.plan == nil {
			t0 := time.Now()
			p, err := dcg.Compile(f, s.dst)
			if err != nil {
				return unreadable()
			}
			s.compile, s.plan = time.Since(t0), p
		}
		out, err := s.plan.Convert(data)
		if err != nil {
			return unreadable()
		}
		data, f = out, s.dst
	}
	tConv = now()
	if s.run.spec.typed && s.kind == subPlain {
		if s.bind == nil {
			b, err := f.Bind(fanoutRecord{})
			if err != nil {
				return unreadable()
			}
			s.bind = b
		}
		if err := s.bind.Decode(data, &s.out); err != nil {
			return unreadable()
		}
		tDec = now()
		if !s.chk.checkTyped(&s.out) {
			s.fails.Mismatch++
		}
		return s.out.Seq, tConv, tDec, true
	}
	rec, err := f.Decode(data)
	if err != nil {
		return unreadable()
	}
	tDec = now()
	seq, good := s.chk.check(rec)
	if !good {
		s.fails.Mismatch++
	}
	return seq, tConv, tDec, true
}

// histDelta is the change of a power-of-two histogram of the default obsv
// registry over an interval. A name the registry does not have reads as empty.
type histDelta struct {
	h      *obsv.Histogram
	before obsv.HistogramValue
}

func watchHist(name string) histDelta {
	h := obsv.Default().FindHistogram(name)
	return histDelta{h: h, before: h.Value()}
}

func (d histDelta) quantileUS(q float64) float64 {
	v := d.h.Value()
	v.Count -= d.before.Count
	for i := range v.Buckets {
		v.Buckets[i] -= d.before.Buckets[i]
	}
	return us(v.Quantile(q))
}

// busSteps are the steps one delivery passes through in pingpong, in order.
var busSteps = []string{"pbio.encode", "eventbus.publish", "eventbus.transit", "dcg.convert", "pbio.decode", "verify"}

// runBus runs one bus workload: setupRuns set-ups, then pingpong, then
// saturate. The traced run alternates untraced and traced slices of saturate,
// which gives the tracing overhead on one system in one process.
func runBus(spec busSpec, cfg config) (*report, error) {
	var r *busRun
	var setups, parses, registers []float64
	var attempted int64 // deliveries of the set-ups torn down so far
	var fails failures
	var stats0 eventbus.BrokerStats // before the set-up that is kept
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			stats0 = r.broker.Stats()
			n, f := r.tally()
			attempted, fails = attempted+n, fails.plus(f)
			r.tearDown()
		}
		var took time.Duration
		var err error
		if r, took, err = setUpBus(spec, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
		parses = append(parses, us(r.parse.Nanoseconds()))
		registers = append(registers, us(r.register.Nanoseconds()))
	}
	defer r.tearDown()

	// Each phase runs as a row of slices, and a timing metric is the quiet
	// quartile of its per-slice values (see quietQuartile).
	ping := &phase{name: "pingpong", window: 1, timed: true, traced: cfg.trace}
	pingDur, satDur := cfg.seconds/3, cfg.seconds-cfg.seconds/3
	var pp phaseStats
	var p50s, tails, p99s []float64
	samples := 0
	for i := 0; i < slices; i++ {
		pp = pp.plus(r.drive(ping, pingDur/slices, 0))
		var lat []int64
		for _, s := range r.subs {
			lat, s.lat = append(lat, s.lat...), s.lat[:0]
		}
		sortInt64(lat)
		samples += len(lat)
		p50s, p99s = append(p50s, us(quantile(lat, 0.50))), append(p99s, us(quantile(lat, 0.99)))
		tails = append(tails, tailMeanUS(lat))
	}

	// The traced run alternates untraced and traced slices of saturate, so
	// that drift over the run falls on both sides alike.
	var sat, satTraced phaseStats
	var rates, tracedRates, cpus []float64
	route, queue := watchHist("eventbus.route_ns"), watchHist("eventbus.queue_wait_ns")
	for _, s := range r.subs {
		s.nextWait, s.busy = 0, 0
	}
	for i := 0; i < slices; i++ {
		traced := cfg.trace && i%2 == 1
		st := r.drive(&phase{name: "saturate", window: window, traced: traced}, satDur/slices, 0)
		if traced {
			satTraced = satTraced.plus(st)
			tracedRates = append(tracedRates, st.rate())
			continue
		}
		sat = sat.plus(st)
		rates = append(rates, st.rate())
		cpus = append(cpus, float64(st.cpu.Microseconds())/float64(max(st.published, 1)))
	}
	stats1 := r.broker.Stats()

	rep := newReport(spec.name, cfg)
	rep.Phases = map[string]float64{"pingpong_s": pp.elapsed.Seconds(), "saturate_s": (sat.elapsed + satTraced.elapsed).Seconds()}
	rep.Window = window

	// Every delivery counts, those of the warm-ups and earlier set-ups too.
	// Broker counters live in the process-wide registry, so the last broker's
	// drop count covers all of them.
	if err := r.fatal(); err != nil {
		fmt.Fprintln(cfg.out, "  run cut short:", err)
	}
	n, f := r.tally()
	fails = fails.plus(f)
	fails.BrokerDrop = stats1.Dropped
	rep.Failures = fails
	rep.Attempted = attempted + n
	rep.Failed = min(fails.total(), rep.Attempted)
	if rep.Attempted == 0 {
		return nil, errors.New("nothing was published")
	}
	perRec := func(v float64) float64 { return v / float64(max(sat.published, 1)) }
	rep.EndToEnd = values{
		"setup_s":             medianFloat(setups),
		"rec_per_s":           quietQuartile(rates, true),
		"lat_p50_us":          quietQuartile(p50s, false),
		"lat_tail_us":         quietQuartile(tails, false),
		"cpu_us_per_rec":      quietQuartile(cpus, false),
		"allocs_per_rec":      perRec(float64(sat.mallocs)),
		"alloc_bytes_per_rec": perRec(float64(sat.allocated)),
		"wire_bytes_per_rec":  perRec(float64(sat.wire)),
		"peak_rss_mb":         peakRSSMB(),
		"verified_share":      1 - float64(rep.Failed)/float64(rep.Attempted),
	}
	fmt.Fprintf(cfg.out, "  pingpong: %d records, %d latency samples in %.2fs; saturate: %d records in %.2fs\n",
		pp.published, samples, pp.elapsed.Seconds(), sat.published, sat.elapsed.Seconds())
	if !cfg.trace {
		return rep, nil
	}

	// Transit is Publish returning to Next returning: the time a record spends
	// in the broker, its queues and the sockets. The two ends are stamped by
	// different goroutines, so it is assembled here. Next can return before
	// the publishing goroutine is back from its write and reads the clock; the
	// transit is then zero, and the delivery waited only for the part of
	// Publish before that, which it gets as a publish span of its own.
	spans := append([]span(nil), r.log.spans...)
	publish := make(map[int64]span)
	for _, sp := range r.log.spans {
		if sp.Name == "eventbus.publish" {
			publish[sp.Rec] = sp
		}
	}
	for _, s := range r.subs {
		for _, sp := range s.log.spans {
			if sp.Name != "next" {
				spans = append(spans, sp)
				continue
			}
			pub, ok := publish[sp.Rec]
			if !ok {
				continue
			}
			cut := min(pub.EndNS, sp.StartNS)
			spans = append(spans,
				span{Name: "eventbus.publish", Phase: sp.Phase, Rec: sp.Rec, Sub: sp.Sub, Parent: "record", StartNS: pub.StartNS, EndNS: cut},
				span{Name: "eventbus.transit", Phase: sp.Phase, Rec: sp.Rec, Sub: sp.Sub, Parent: "record", StartNS: cut, EndNS: sp.StartNS})
		}
	}
	if err := writeTrace(cfg.outDir, spec.name, spans); err != nil {
		return nil, err
	}

	iso := isolated(r, isoCalls(cfg))
	var compile, planOps, nextWait, busy float64
	for _, s := range r.subs {
		if s.plan != nil {
			compile, planOps = us(s.compile.Nanoseconds()), float64(s.plan.Ops())
		}
		nextWait += s.nextWait.Seconds()
		busy += s.busy.Seconds()
	}
	transit := durations(spans, "pingpong", "eventbus.transit")
	wirePerRec := float64(satTraced.wire) / float64(max(satTraced.published, 1))
	ndrPerRec := float64(satTraced.ndr) / float64(max(satTraced.published, 1))
	rep.PerLayer = values{
		"pbio.encode_us":                medianSpanUS(r.log.spans, "pingpong", "pbio.encode"),
		"pbio.decode_us":                medianSpanUS(spans, "pingpong", "pbio.decode"),
		"pbio.encode_iso_ns":            iso.encodeNS,
		"pbio.decode_iso_ns":            iso.decodeNS,
		"pbio.decode_iso_allocs":        iso.decodeAllocs,
		"pbio.ndr_bytes_per_rec":        ndrPerRec,
		"pbio.meta_marshal_us":          iso.metaMarshalUS,
		"pbio.meta_unmarshal_us":        iso.metaUnmarshalUS,
		"pbio.meta_bytes":               iso.metaBytes,
		"dcg.convert_us":                medianSpanUS(spans, "pingpong", "dcg.convert"),
		"dcg.convert_iso_ns":            iso.convertNS,
		"dcg.compile_us":                compile,
		"dcg.plan_ops":                  planOps,
		"xmlschema.parse_us":            medianFloat(parses),
		"core.register_us":              medianFloat(registers),
		"eventbus.publish_us":           medianSpanUS(r.log.spans, "pingpong", "eventbus.publish"),
		"eventbus.transit_p50_us":       us(quantile(transit, 0.50)),
		"eventbus.transit_p99_us":       us(quantile(transit, 0.99)),
		"eventbus.next_wait_share":      nextWait / max(nextWait+busy, 1e-9),
		"eventbus.frame_overhead_bytes": wirePerRec - ndrPerRec,
		"broker.published":              float64(stats1.Published - stats0.Published),
		"broker.delivered":              float64(stats1.Delivered - stats0.Delivered),
		"broker.dropped":                float64(stats1.Dropped - stats0.Dropped),
		"broker.formats_sent":           float64(stats1.FormatsSent - stats0.FormatsSent),
		"broker.slow_stalls":            float64(stats1.SlowSubscriberStalls - stats0.SlowSubscriberStalls),
		"broker.route_p50_us":           route.quantileUS(0.50),
		"broker.route_p99_us":           route.quantileUS(0.99),
		"broker.queue_wait_p50_us":      queue.quantileUS(0.50),
		"broker.queue_wait_p99_us":      queue.quantileUS(0.99),
		"harness.pub_blocked_share":     satTraced.blocked.Seconds() / satTraced.elapsed.Seconds(),
		"harness.trace_overhead_pct":    100 * (1 - quietQuartile(tracedRates, true)/quietQuartile(rates, true)),
		"harness.gomaxprocs":            float64(runtime.GOMAXPROCS(0)),
		"harness.lat_samples":           float64(samples),
		"harness.lat_p99_us":            quietQuartile(p99s, false),
		"harness.fail_share":            float64(rep.Failed) / float64(rep.Attempted),
	}
	rep.ShareSum = shareTable(cfg.out, spans, "pingpong", busSteps)
	return rep, nil
}

// isoResult holds the single-goroutine, one-layer-at-a-time measurements.
type isoResult struct {
	encodeNS, decodeNS, decodeAllocs, convertNS float64
	metaMarshalUS, metaUnmarshalUS, metaBytes   float64
	ndrBytes                                    float64 // cold_bind: mean NDR record size
}

// isoCalls is the number of calls each isolated measurement makes: 20000 at
// the default run length, in proportion for a shorter run, which an isolated
// pass should not outlast.
func isoCalls(cfg config) int {
	return max(200, int(20000*cfg.seconds.Seconds()/defaultSeconds))
}

// timeCalls runs fn n times on this goroutine alone and returns ns and heap
// allocations per call.
func timeCalls(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// isolated measures each codec layer on the workload's own records with no
// other layer running: the system is idle, only this goroutine works.
func isolated(r *busRun, calls int) isoResult {
	var res isoResult
	images := make([][]byte, ringSize)
	for i := range images {
		images[i], _ = r.encode(int64(i))
	}
	res.encodeNS, _ = timeCalls(calls, func(i int) { _, _ = r.encode(int64(i)) })

	src := r.format
	var plan *dcg.Plan
	for _, s := range r.subs {
		if s.plan != nil {
			plan = s.plan
		}
	}
	decodeFormat, decodeImages := src, images
	if plan != nil {
		res.convertNS, _ = timeCalls(calls, func(i int) { _, _ = plan.Convert(images[i%ringSize]) })
		if !r.spec.typed { // the generic decode of a converting workload runs on converted bytes
			decodeFormat, decodeImages = plan.Dst, make([][]byte, ringSize)
			for i := range decodeImages {
				decodeImages[i], _ = plan.Convert(images[i])
			}
		}
	}
	if r.spec.typed {
		var out fanoutRecord
		res.decodeNS, res.decodeAllocs = timeCalls(calls, func(i int) { _ = r.binding.Decode(images[i%ringSize], &out) })
	} else {
		res.decodeNS, res.decodeAllocs = timeCalls(calls, func(i int) { _, _ = decodeFormat.Decode(decodeImages[i%ringSize]) })
	}

	meta := pbio.MarshalMeta(src)
	res.metaBytes = float64(len(meta))
	ns, _ := timeCalls(calls/10, func(int) { _ = pbio.MarshalMeta(src) })
	res.metaMarshalUS = ns / 1e3
	ns, _ = timeCalls(calls/10, func(int) { _, _ = pbio.UnmarshalMeta(meta) })
	res.metaUnmarshalUS = ns / 1e3
	return res
}

// typedRing copies the generic ring into the compiled-in struct type.
func typedRing(ring []pbio.Record) []fanoutRecord {
	out := make([]fanoutRecord, len(ring))
	for i, rec := range ring {
		fillStruct(reflect.ValueOf(&out[i]).Elem(), rec)
	}
	return out
}
