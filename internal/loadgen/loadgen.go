// Package loadgen is the repo's open-loop load generator: it drives N
// concurrent publishers and M subscribers (plain, scoped and converting
// mixes) against an in-process or remote broker at a configured arrival
// rate, carries a publish timestamp inside every record's payload, and
// measures true end-to-end publish→route→convert→deliver latency at the
// subscriber. The paper's claim is quantitative — binary metadata exchange
// beats textual XML by integer factors — and this package is what turns
// that into a measured number: cmd/omload wraps it and scripts/bench.sh
// reports its percentiles next to the Table 1/2 ns/op gates. They are not
// gated: a short live run's p99 moves by half between runs of identical code,
// and the repository benchmark (benchmark/) is the judge of end-to-end cost.
//
// Open loop means arrivals are scheduled by wall clock, independent of
// completions: a publisher that falls behind its schedule publishes
// immediately and the lag is reported (Behind / MaxLag) instead of silently
// shrinking the offered load — the difference between measuring the system
// and measuring the generator.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openmeta/internal/dcg"
	"openmeta/internal/eventbus"
	"openmeta/internal/faultnet"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/retry"
	"openmeta/internal/trace"
)

// Spec configures one load run. The zero value is usable: one publisher,
// one plain subscriber, maximum rate for one second against an in-process
// broker.
type Spec struct {
	// Publishers is the number of concurrent publisher connections
	// (default 1). The aggregate Rate is split evenly across them.
	Publishers int `json:"publishers"`
	// Subscribers is the number of plain full-format subscribers
	// (default 1 when no subscriber class is requested).
	Subscribers int `json:"subscribers"`
	// Scoped is the number of field-scoped subscribers: each subscribes to
	// a slice of the record (seq + timestamp only), so the broker projects
	// every record through a conversion plan before delivery — the paper's
	// §4.4 scoping on the hot path.
	Scoped int `json:"scoped"`
	// Converting is the number of converting subscribers: each receives the
	// full record and converts it locally to a foreign-architecture layout
	// (big-endian Sparc64) through a dcg plan before decoding, the
	// heterogeneous-peer cost.
	Converting int `json:"converting"`
	// Rate is the aggregate open-loop arrival rate in records/sec across
	// all publishers; 0 publishes as fast as the bus accepts (closed loop).
	Rate float64 `json:"rate"`
	// Duration bounds the publishing phase (default 1s).
	Duration time.Duration `json:"duration_ns"`
	// Payload is the number of 8-byte elements in each record's dynamic
	// array — the wire-size knob (default 8, i.e. ~88-byte records).
	Payload int `json:"payload"`
	// QueueDepth bounds each subscriber's broker-side frame queue
	// (default 1024); overflow is counted as drops, not backpressure.
	QueueDepth int `json:"queue_depth"`
	// Addr is a remote broker address. Empty starts an in-process broker on
	// a loopback listener; remote runs lose broker-side stats and spans.
	Addr string `json:"addr,omitempty"`
	// SampleEvery traces 1-in-N published records for the stage-share
	// breakdown (default 32; 0 keeps the default, negative disables).
	SampleEvery int `json:"sample_every"`
	// Chaos names a faultnet profile injected into every client connection:
	// "" (none), "default", "latency", "resets", or "slowsub" (subscriber
	// connections only). Chaos runs dial with auto-reconnect enabled.
	Chaos string `json:"chaos,omitempty"`
	// ChaosSeed seeds the deterministic fault schedules (default 1).
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// Stream is the stream name published to (default "load").
	Stream string `json:"stream"`
}

// withDefaults returns the spec with zero fields filled in.
func (s Spec) withDefaults() Spec {
	if s.Publishers <= 0 {
		s.Publishers = 1
	}
	if s.Subscribers <= 0 && s.Scoped <= 0 && s.Converting <= 0 {
		s.Subscribers = 1
	}
	if s.Subscribers < 0 {
		s.Subscribers = 0
	}
	if s.Scoped < 0 {
		s.Scoped = 0
	}
	if s.Converting < 0 {
		s.Converting = 0
	}
	if s.Duration <= 0 {
		s.Duration = time.Second
	}
	if s.Payload <= 0 {
		s.Payload = 8
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 1024
	}
	if s.SampleEvery == 0 {
		s.SampleEvery = 32
	}
	if s.ChaosSeed == 0 {
		s.ChaosSeed = 1
	}
	if s.Stream == "" {
		s.Stream = "load"
	}
	return s
}

// Subscriber class names, as they appear in Report.Classes.
const (
	ClassPlain      = "plain"
	ClassScoped     = "scoped"
	ClassConverting = "converting"
)

// chaosProfile resolves a Spec.Chaos name. subOnly reports profiles that
// apply to subscriber connections only.
func chaosProfile(name string) (p faultnet.Profile, subOnly bool, err error) {
	switch name {
	case "":
		return faultnet.Profile{}, false, nil
	case "default":
		return faultnet.DefaultProfile(), false, nil
	case "latency":
		return faultnet.Profile{PLatency: 0.25, MaxDelay: 2 * time.Millisecond}, false, nil
	case "resets":
		return faultnet.Profile{PLatency: 0.05, PReset: 0.01, MaxDelay: time.Millisecond}, false, nil
	case "slowsub":
		return faultnet.Profile{PLatency: 0.5, MaxDelay: 5 * time.Millisecond}, true, nil
	default:
		return faultnet.Profile{}, false, fmt.Errorf("loadgen: unknown chaos profile %q (have %v)", name, ChaosProfiles())
	}
}

// ChaosProfiles lists the chaos profile names Spec.Chaos accepts.
func ChaosProfiles() []string { return []string{"default", "latency", "resets", "slowsub"} }

// chaosDialer wraps the plain TCP dialer with a per-connection deterministic
// fault schedule derived from seed.
func chaosDialer(profile faultnet.Profile, seed int64) eventbus.DialFunc {
	var n atomic.Int64
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		sched := faultnet.NewSchedule(faultnet.Generate(seed+n.Add(1), 4096, profile)...).Loop()
		return faultnet.Wrap(c, sched), nil
	}
}

// warmupSeq marks handshake records published before the measured window;
// subscribers acknowledge the first one and never count them.
const warmupSeq = -1

// subscriber is one running subscriber goroutine's state and results.
type subscriber struct {
	class string
	sub   *eventbus.Subscriber
	hist  Hist
	recvd int64
	bytes int64
	warm  chan struct{} // closed on first (warmup) record
	errs  int64

	// converting-class state: per-source-format conversion plans into the
	// foreign-architecture target layout.
	convCtx   *pbio.Context
	convPlans map[pbio.FormatID]*convTarget
}

type convTarget struct {
	format *pbio.Format
	plan   *dcg.Plan
}

// loadFields is the measured record's layout: a sequence number, the
// publish timestamp the subscriber measures against, and a dynamic payload
// array sized by Spec.Payload.
func loadFields() []pbio.FieldSpec {
	return []pbio.FieldSpec{
		{Name: "seq", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "pubns", Kind: pbio.Int, CType: machine.CLongLong},
		{Name: "pad", Kind: pbio.Uint, CType: machine.CULongLong, Dynamic: true, CountField: "n"},
		{Name: "n", Kind: pbio.Int, CType: machine.CInt},
	}
}

// Run executes one load run and reports the measured latency distribution,
// throughput, drop counts and stage-share breakdown. ctx cancels the run
// early (the report covers what ran).
func Run(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	profile, chaosSubOnly, err := chaosProfile(spec.Chaos)
	if err != nil {
		return nil, err
	}

	tracer := trace.NewTracer(1 << 16)
	if spec.SampleEvery > 0 {
		tracer.SetSampling(spec.SampleEvery)
	}

	// Broker: in-process on loopback unless a remote address is given. The
	// in-process broker gets an isolated metrics registry so published /
	// delivered / dropped counts are this run's alone.
	addr := spec.Addr
	var broker *eventbus.Broker
	if addr == "" {
		reg := obsv.New()
		broker, err = eventbus.Listen("127.0.0.1:0",
			eventbus.WithObserver(reg),
			eventbus.WithQueueDepth(spec.QueueDepth),
			eventbus.WithTracer(tracer))
		if err != nil {
			return nil, fmt.Errorf("loadgen: start broker: %w", err)
		}
		defer broker.Close()
		addr = broker.Addr().String()
	}

	clientOpts := func(subSide bool) []eventbus.ClientOption {
		opts := []eventbus.ClientOption{eventbus.WithClientTracer(tracer)}
		if spec.Chaos != "" {
			if !chaosSubOnly || subSide {
				opts = append(opts, eventbus.WithDialFunc(chaosDialer(profile, spec.ChaosSeed)))
			}
			// Chaos severs connections; reconnect keeps the run alive.
			opts = append(opts, eventbus.WithReconnect(retry.Policy{
				MaxAttempts: 10, Initial: 5 * time.Millisecond, Max: 250 * time.Millisecond,
			}))
		}
		return opts
	}

	// --- Subscribers -------------------------------------------------------
	var subs []*subscriber
	addSubs := func(n int, class string) error {
		for i := 0; i < n; i++ {
			sctx, err := pbio.NewContext(machine.Native)
			if err != nil {
				return err
			}
			s, err := eventbus.DialSubscriberContext(ctx, addr, sctx, clientOpts(true)...)
			if err != nil {
				return fmt.Errorf("loadgen: dial %s subscriber: %w", class, err)
			}
			ls := &subscriber{class: class, sub: s, warm: make(chan struct{})}
			switch class {
			case ClassScoped:
				err = s.SubscribeFields(spec.Stream, "seq", "pubns")
			case ClassConverting:
				// The conversion target: the same fields laid out for a
				// big-endian 64-bit peer, so every record pays a real
				// byte-order + layout conversion before decode.
				ls.convCtx, err = pbio.NewContext(machine.Sparc64)
				if err == nil {
					ls.convPlans = make(map[pbio.FormatID]*convTarget)
					err = s.Subscribe(spec.Stream)
				}
			default:
				err = s.Subscribe(spec.Stream)
			}
			if err != nil {
				s.Close()
				return fmt.Errorf("loadgen: subscribe (%s): %w", class, err)
			}
			subs = append(subs, ls)
		}
		return nil
	}
	if err := addSubs(spec.Subscribers, ClassPlain); err != nil {
		return nil, err
	}
	if err := addSubs(spec.Scoped, ClassScoped); err != nil {
		closeSubs(subs)
		return nil, err
	}
	if err := addSubs(spec.Converting, ClassConverting); err != nil {
		closeSubs(subs)
		return nil, err
	}
	defer closeSubs(subs)

	var wg sync.WaitGroup
	for _, s := range subs {
		wg.Add(1)
		go func(s *subscriber) {
			defer wg.Done()
			s.loop(spec.Stream)
		}(s)
	}

	// --- Publishers --------------------------------------------------------
	pubCtx, err := pbio.NewContext(machine.Native)
	if err != nil {
		return nil, err
	}
	format, err := pubCtx.RegisterSpec("LoadRecord", loadFields())
	if err != nil {
		return nil, err
	}
	pubs := make([]*eventbus.Publisher, spec.Publishers)
	for i := range pubs {
		p, err := eventbus.DialPublisherContext(ctx, addr, clientOpts(false)...)
		if err != nil {
			closePubs(pubs)
			return nil, fmt.Errorf("loadgen: dial publisher: %w", err)
		}
		pubs[i] = p
	}
	defer closePubs(pubs)

	pad := make([]uint64, spec.Payload)
	for i := range pad {
		pad[i] = uint64(i) * 0x9e3779b97f4a7c15
	}

	// Warmup: publish marker records until every subscriber has seen one, so
	// the measured window starts with subscriptions live and format metadata
	// delivered — no fixed sleep, no lost head-of-run records.
	if err := warmup(ctx, pubs[0], spec.Stream, format, subs); err != nil {
		return nil, err
	}

	// Measured window: each publisher runs its own open-loop schedule.
	type pubResult struct {
		published int64
		behind    int64
		maxLag    time.Duration
		errs      int64
	}
	results := make([]pubResult, len(pubs))
	deadline := time.Now().Add(spec.Duration)
	runCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	start := time.Now()
	var pwg sync.WaitGroup
	for pi, p := range pubs {
		pwg.Add(1)
		go func(pi int, p *eventbus.Publisher) {
			defer pwg.Done()
			res := &results[pi]
			var interval time.Duration
			if spec.Rate > 0 {
				interval = time.Duration(float64(time.Second) * float64(spec.Publishers) / spec.Rate)
			}
			rec := pbio.Record{"pad": pad}
			for i := int64(0); ; i++ {
				if runCtx.Err() != nil {
					return
				}
				if interval > 0 {
					target := start.Add(time.Duration(i) * interval)
					lag := time.Since(target)
					if lag < 0 {
						select {
						case <-runCtx.Done():
							return
						case <-time.After(-lag):
						}
					} else if lag > 0 && i > 0 {
						// Open loop: behind schedule, publish immediately and
						// account for the backlog instead of shedding load.
						res.behind++
						if lag > res.maxLag {
							res.maxLag = lag
						}
					}
				}
				if time.Now().After(deadline) {
					return
				}
				rec["seq"] = i
				rec["pubns"] = time.Now().UnixNano()
				if err := pubs[pi].PublishRecord(spec.Stream, format, rec); err != nil {
					res.errs++
					if runCtx.Err() != nil || !recoverable(err) {
						return
					}
					continue
				}
				res.published++
			}
		}(pi, p)
	}
	pwg.Wait()
	elapsed := time.Since(start)

	// Drain: receiving stops when counts go quiet (or after a hard cap), so
	// in-flight records land in the histogram without a fixed sleep.
	drain(subs, 2*time.Second)
	closeSubs(subs)
	wg.Wait()

	// --- Aggregate ---------------------------------------------------------
	rep := &Report{
		Schema:  ReportSchema,
		Spec:    spec,
		Elapsed: elapsed,
		Classes: make(map[string]*ClassReport),
	}
	var overall Hist
	for _, s := range subs {
		cr := rep.Classes[s.class]
		if cr == nil {
			cr = &ClassReport{Subscribers: 0}
			rep.Classes[s.class] = cr
		}
		cr.Subscribers++
		cr.Received += s.recvd
		cr.Bytes += s.bytes
		cr.DecodeErrors += s.errs
		cr.hist.Merge(&s.hist)
		overall.Merge(&s.hist)
		rep.Delivered += s.recvd
		rep.DeliveredBytes += s.bytes
	}
	for _, cr := range rep.Classes {
		cr.Latency = summarize(&cr.hist)
	}
	rep.Latency = summarize(&overall)
	for _, r := range results {
		rep.Published += r.published
		rep.Behind += r.behind
		rep.PublishErrors += r.errs
		if r.maxLag > rep.MaxLag {
			rep.MaxLag = r.maxLag
		}
	}
	if sec := elapsed.Seconds(); sec > 0 {
		rep.RecordsPerSec = float64(rep.Delivered) / sec
		rep.BytesPerSec = float64(rep.DeliveredBytes) / sec
	}
	if broker != nil {
		st := broker.Stats()
		rep.Dropped = st.Dropped
		rep.BrokerPublished = st.Published
		rep.BrokerDelivered = st.Delivered
	}
	spans := tracer.Snapshot()
	rep.Stages = stageShares(spans)
	rep.Autopsy = buildAutopsy(&overall, spans)
	return rep, nil
}

// recoverable reports whether a publish error is worth continuing past
// (anything but a closed publisher; reconnect already retried underneath).
func recoverable(err error) bool {
	return !errors.Is(err, eventbus.ErrClosed)
}

// warmup publishes marker records until every subscriber has received one.
func warmup(ctx context.Context, p *eventbus.Publisher, stream string, f *pbio.Format, subs []*subscriber) error {
	warmCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rec := pbio.Record{"seq": int64(warmupSeq), "pubns": int64(0), "pad": []uint64{}}
	pending := make([]*subscriber, len(subs))
	copy(pending, subs)
	for len(pending) > 0 {
		if err := warmCtx.Err(); err != nil {
			return fmt.Errorf("loadgen: warmup: %d of %d subscribers never received a record: %w",
				len(pending), len(subs), err)
		}
		if err := p.PublishRecord(stream, f, rec); err != nil {
			return fmt.Errorf("loadgen: warmup publish: %w", err)
		}
		next := pending[:0]
		for _, s := range pending {
			select {
			case <-s.warm:
			default:
				next = append(next, s)
			}
		}
		pending = next
		if len(pending) > 0 {
			select {
			case <-warmCtx.Done():
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// drain waits until subscriber receive counts stop moving (two consecutive
// quiet polls) or the limit elapses.
func drain(subs []*subscriber, limit time.Duration) {
	total := func() int64 {
		var n int64
		for _, s := range subs {
			n += atomic.LoadInt64(&s.recvd)
		}
		return n
	}
	deadline := time.Now().Add(limit)
	prev := total()
	quiet := 0
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		cur := total()
		if cur == prev {
			quiet++
			if quiet >= 2 {
				return
			}
		} else {
			quiet = 0
		}
		prev = cur
	}
}

// loop is one subscriber's receive loop: decode, extract the publish
// timestamp, record the end-to-end latency. Converting subscribers first
// push the record through a conversion plan into the foreign layout.
func (s *subscriber) loop(stream string) {
	warmed := false
	for {
		ev, err := s.sub.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return
			}
			atomic.AddInt64(&s.errs, 1)
			return
		}
		if ev.Stream != stream {
			continue
		}
		now := time.Now().UnixNano()
		data, f := ev.Data, ev.Format
		if s.convPlans != nil {
			ct, err := s.convertTarget(f)
			if err != nil {
				atomic.AddInt64(&s.errs, 1)
				continue
			}
			if data, err = ct.plan.ConvertCtx(ev.Trace, data); err != nil {
				atomic.AddInt64(&s.errs, 1)
				continue
			}
			f = ct.format
		}
		rec, err := f.DecodeCtx(ev.Trace, data)
		if err != nil {
			atomic.AddInt64(&s.errs, 1)
			continue
		}
		seq, _ := rec["seq"].(int64)
		if seq == warmupSeq {
			if !warmed {
				warmed = true
				close(s.warm)
			}
			continue
		}
		pubns, _ := rec["pubns"].(int64)
		if pubns > 0 {
			if ev.Trace.Sampled() {
				// A traced record: remember its latency + TraceID so the
				// report's autopsy can link the p99 to an assembled trace.
				s.hist.RecordExemplar(now-pubns, ev.Trace.Trace(), now)
			} else {
				s.hist.Record(now - pubns)
			}
		}
		s.bytes += int64(len(ev.Data))
		atomic.AddInt64(&s.recvd, 1)
	}
}

// convertTarget memoizes one conversion plan per source format: the same
// fields registered for the Sparc64 profile, compiled into a dcg program.
func (s *subscriber) convertTarget(src *pbio.Format) (*convTarget, error) {
	if ct, ok := s.convPlans[src.ID]; ok {
		return ct, nil
	}
	target, err := s.convCtx.RegisterSpec(src.Name+"_s64", loadFields())
	if err != nil {
		return nil, err
	}
	plan, err := dcg.Compile(src, target)
	if err != nil {
		return nil, err
	}
	ct := &convTarget{format: target, plan: plan}
	s.convPlans[src.ID] = ct
	return ct, nil
}

func closeSubs(subs []*subscriber) {
	for _, s := range subs {
		if s != nil && s.sub != nil {
			_ = s.sub.Close()
		}
	}
}

func closePubs(pubs []*eventbus.Publisher) {
	for _, p := range pubs {
		if p != nil {
			_ = p.Close()
		}
	}
}

// stageNames maps the pipeline stages of the share breakdown to the span
// names that measure them. "publish" is the client-side frame write
// (pub.publish self time, its encode child subtracted); "deliver" is the
// subscriber-side decode.
var stageNames = []struct {
	stage string
	spans []string
}{
	{"encode", []string{"pbio.encode"}},
	{"publish", []string{"pub.publish"}},
	{"route", []string{"broker.route"}},
	{"queue", []string{"broker.queue"}},
	{"convert", []string{"dcg.convert", "dcg.compile"}},
	{"deliver", []string{"pbio.decode"}},
}

// stageShares turns a span snapshot into the normalized stage breakdown.
// Self times (children subtracted) keep nested stages from double-counting,
// so the shares sum to ~100%.
func stageShares(spans []trace.Span) []StageShare {
	if len(spans) == 0 {
		return nil
	}
	self := trace.SelfTimes(spans)
	var total time.Duration
	shares := make([]StageShare, 0, len(stageNames))
	for _, sn := range stageNames {
		var d time.Duration
		for _, name := range sn.spans {
			d += self[name]
		}
		shares = append(shares, StageShare{Name: sn.stage, Total: d})
		total += d
	}
	if total <= 0 {
		return nil
	}
	for i := range shares {
		shares[i].SharePct = 100 * float64(shares[i].Total) / float64(total)
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].Total > shares[j].Total })
	return shares
}
