package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"openmeta/internal/core"
	"openmeta/internal/dcg"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// coldSteps are the steps between schema text in hand and the first verified
// record, in order. parse and register run twice (sender and receiver) and
// encode and write once per session record; the table adds them up.
var coldSteps = []string{"xmlschema.parse", "core.register", "pbio.encode", "pbio.write", "pbio.read", "dcg.compile", "dcg.convert", "pbio.decode", "verify"}

// coldRun is the state of the cold_bind loop. There is no broker and there
// are no sockets: one goroutine does everything.
type coldRun struct {
	pool     []poolDoc
	sessions int64
	records  int64
	failed   int64
	wire     int64   // bytes of the pbio streams written
	first    []int64 // ns from session start to the first verified record
	log      spanLog

	metaBytes, planOps int64 // summed over traced sessions
	traced             int64
	metaMarshal        []int64 // ns, traced sessions
	metaUnmarshal      []int64
}

// stopwatch stamps the steps of a traced session; when off it reads no clock.
type stopwatch struct {
	log  *spanLog
	rec  int64
	last time.Time
}

func (s *stopwatch) lap(name, phase string) {
	if s.log == nil {
		return
	}
	now := time.Now()
	s.log.add(name, phase, s.rec, 0, s.last, now)
	s.last = now
}

// register is core.RegisterDocument; a traced session times its two halves.
func (c *coldRun) register(ctx *pbio.Context, doc []byte, sw *stopwatch) (*pbio.Format, error) {
	if sw.log == nil {
		set, err := core.RegisterDocument(ctx, doc)
		if err != nil {
			return nil, err
		}
		return set.Root(), nil
	}
	set, parse, _, err := registerDoc(ctx, string(doc))
	if err != nil {
		return nil, err
	}
	mid := sw.last.Add(parse)
	sw.log.add("xmlschema.parse", "first", sw.rec, 0, sw.last, mid)
	sw.last = mid
	sw.lap("core.register", "first")
	return set.Root(), nil
}

// session is one cold discovery-to-first-record path: register the document
// on the sending architecture, write the format and the records as a pbio
// stream, register the same document on the receiving architecture, read the
// stream back adopting the sender's format from its metadata, compile the
// conversion, then convert, decode and verify every record.
func (c *coldRun) session(d *poolDoc, traced bool) error {
	id := c.sessions
	c.sessions++
	sw := &stopwatch{rec: id}
	t0 := time.Now()
	if traced && id%sampleEvery == 0 {
		sw.log, sw.last = &c.log, t0
	}

	srcCtx, err := pbio.NewContext(machine.X86_64)
	if err != nil {
		return err
	}
	src, err := c.register(srcCtx, d.doc, sw)
	if err != nil {
		return err
	}
	var stream bytes.Buffer
	w := pbio.NewWriter(&stream)
	if err := w.WriteFormat(src); err != nil {
		return err
	}
	sw.lap("pbio.write", "first")
	for _, rec := range d.records {
		data, err := src.Encode(rec)
		if err != nil {
			return err
		}
		sw.lap("pbio.encode", "first")
		if err := w.WriteRecord(src, data); err != nil {
			return err
		}
		sw.lap("pbio.write", "first")
	}
	c.wire += int64(stream.Len())

	dstCtx, err := pbio.NewContext(machine.Sparc64)
	if err != nil {
		return err
	}
	dst, err := c.register(dstCtx, d.doc, sw)
	if err != nil {
		return err
	}
	rd := pbio.NewReader(&stream, dstCtx)
	var plan *dcg.Plan
	phase := "first"
	for i, want := range d.records {
		from, data, err := rd.ReadRecord()
		if err != nil {
			return err
		}
		sw.lap("pbio.read", phase)
		if plan == nil {
			if plan, err = dcg.Compile(from, dst); err != nil {
				return err
			}
			sw.lap("dcg.compile", phase)
		}
		out, err := plan.Convert(data)
		if err != nil {
			return err
		}
		sw.lap("dcg.convert", phase)
		got, err := dst.Decode(out)
		if err != nil {
			return err
		}
		sw.lap("pbio.decode", phase)
		c.records++
		if !reflect.DeepEqual(got, want) {
			c.failed++
		}
		sw.lap("verify", phase)
		if i == 0 {
			end := time.Now()
			c.first = append(c.first, end.Sub(t0).Nanoseconds())
			if sw.log != nil {
				sw.log.add("record", "first", id, 0, t0, end)
			}
			phase = "rest"
		}
	}

	if sw.log != nil {
		// Metadata marshalling happens inside Writer and Reader; timing it
		// alone takes calls of its own, which only a traced session makes.
		t := time.Now()
		meta := pbio.MarshalMeta(src)
		c.metaMarshal = append(c.metaMarshal, time.Since(t).Nanoseconds())
		t = time.Now()
		_, err := pbio.UnmarshalMeta(meta)
		c.metaUnmarshal = append(c.metaUnmarshal, time.Since(t).Nanoseconds())
		if err != nil {
			return err
		}
		c.metaBytes += int64(len(meta))
		c.planOps += int64(plan.Ops())
		c.traced++
	}
	return nil
}

// loop runs whole passes over the pool, for dur or exactly passes of them.
// Every document is used equally often, so the per-record counts (bytes,
// allocations) do not depend on where the clock stopped the loop.
func (c *coldRun) loop(dur time.Duration, passes int, traced bool) (phaseStats, error) {
	var st phaseStats
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, wire0, rec0 := cpuTime(), c.wire, c.records
	start := time.Now()
	for pass := 0; pass < passes || (passes == 0 && time.Since(start) < dur); pass++ {
		for i := range c.pool {
			if err := c.session(&c.pool[i], traced); err != nil {
				return st, fmt.Errorf("session %d (document %d): %w", c.sessions-1, i, err)
			}
		}
	}
	st.elapsed = time.Since(start)
	st.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	st.mallocs, st.allocated = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	st.published, st.wire = c.records-rec0, c.wire-wire0
	return st, nil
}

// runCold runs cold_bind. Set-up is one pass over the pool, which fills the
// caches a long-lived process would have warm (allocator size classes, the
// obsv label children of each format name); setup_s is the median of
// setupRuns such passes.
func runCold(cfg config) (*report, error) {
	c := &coldRun{pool: pool(cfg.seed)}
	c.log.epoch = time.Now()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		st, err := c.loop(0, 1, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st.elapsed.Seconds())
	}
	c.first = c.first[:0]

	// As in the bus workloads, the run is a row of slices and a timing metric
	// is the quiet quartile of them. The traced run traces every other slice.
	rep := newReport("cold_bind", cfg)
	var plain, traced phaseStats
	var rates, tracedRates, cpus, p50s, tails, p99s []float64
	samples := 0
	for i := 0; i < slices; i++ {
		tracing := cfg.trace && i%2 == 1
		c.first = c.first[:0]
		st, err := c.loop(cfg.seconds/slices, 0, tracing)
		if err != nil {
			return nil, err
		}
		if tracing {
			traced = traced.plus(st)
			tracedRates = append(tracedRates, st.rate())
			continue
		}
		plain = plain.plus(st)
		lat := sortInt64(c.first)
		samples += len(lat)
		rates, cpus = append(rates, st.rate()), append(cpus, float64(st.cpu.Microseconds())/float64(max(st.published, 1)))
		p50s, p99s = append(p50s, us(quantile(lat, 0.50))), append(p99s, us(quantile(lat, 0.99)))
		tails = append(tails, tailMeanUS(lat))
	}
	rep.Phases = map[string]float64{"cold_s": plain.elapsed.Seconds(), "cold_traced_s": traced.elapsed.Seconds()}
	perRec := func(v float64) float64 { return v / float64(max(plain.published, 1)) }
	endToEnd := values{
		"setup_s":             medianFloat(setups),
		"rec_per_s":           quietQuartile(rates, true),
		"lat_p50_us":          quietQuartile(p50s, false),
		"lat_tail_us":         quietQuartile(tails, false),
		"cpu_us_per_rec":      quietQuartile(cpus, false),
		"allocs_per_rec":      perRec(float64(plain.mallocs)),
		"alloc_bytes_per_rec": perRec(float64(plain.allocated)),
		"wire_bytes_per_rec":  perRec(float64(plain.wire)),
	}
	fmt.Fprintf(cfg.out, "  cold: %d sessions, %d records in %.2fs\n", samples, plain.published, plain.elapsed.Seconds())

	rep.Attempted, rep.Failed = c.records, c.failed
	rep.Failures = failures{Mismatch: c.failed}
	if rep.Attempted == 0 {
		return nil, errors.New("no session completed")
	}
	endToEnd["peak_rss_mb"] = peakRSSMB()
	endToEnd["verified_share"] = 1 - float64(rep.Failed)/float64(rep.Attempted)
	rep.EndToEnd = endToEnd
	if !cfg.trace {
		return rep, nil
	}

	spans := c.log.spans
	if err := writeTrace(cfg.outDir, "cold_bind", spans); err != nil {
		return nil, err
	}
	iso := isolatedCold(c.pool, isoCalls(cfg))
	n := float64(max(c.traced, 1))
	rep.PerLayer = values{
		"pbio.encode_us":             medianSpanUS(spans, "", "pbio.encode"),
		"pbio.decode_us":             medianSpanUS(spans, "", "pbio.decode"),
		"pbio.encode_iso_ns":         iso.encodeNS,
		"pbio.decode_iso_ns":         iso.decodeNS,
		"pbio.decode_iso_allocs":     iso.decodeAllocs,
		"pbio.ndr_bytes_per_rec":     iso.ndrBytes,
		"pbio.meta_marshal_us":       us(quantile(sortInt64(c.metaMarshal), 0.5)),
		"pbio.meta_unmarshal_us":     us(quantile(sortInt64(c.metaUnmarshal), 0.5)),
		"pbio.meta_bytes":            float64(c.metaBytes) / n,
		"dcg.convert_us":             medianSpanUS(spans, "", "dcg.convert"),
		"dcg.convert_iso_ns":         iso.convertNS,
		"dcg.compile_us":             medianSpanUS(spans, "", "dcg.compile"),
		"dcg.plan_ops":               float64(c.planOps) / n,
		"xmlschema.parse_us":         medianSpanUS(spans, "", "xmlschema.parse"),
		"core.register_us":           medianSpanUS(spans, "", "core.register"),
		"harness.trace_overhead_pct": 100 * (1 - quietQuartile(tracedRates, true)/quietQuartile(rates, true)),
		"harness.gomaxprocs":         float64(runtime.GOMAXPROCS(0)),
		"harness.lat_samples":        float64(samples),
		"harness.lat_p99_us":         quietQuartile(p99s, false),
		"harness.fail_share":         float64(rep.Failed) / float64(rep.Attempted),
	}
	rep.ShareSum = shareTable(cfg.out, spans, "first", coldSteps)
	return rep, nil
}

// isolatedCold measures encode, convert and decode alone over the pool's
// records: formats are registered and plans compiled once, outside the timing.
func isolatedCold(pool []poolDoc, calls int) isoResult {
	type item struct {
		src, dst *pbio.Format
		plan     *dcg.Plan
		rec      pbio.Record
		ndr, big []byte
	}
	var items []item
	var ndrBytes int
	for i := range pool {
		d := &pool[i]
		srcCtx, _ := pbio.NewContext(machine.X86_64)
		dstCtx, _ := pbio.NewContext(machine.Sparc64)
		sset, err1 := core.RegisterDocument(srcCtx, d.doc)
		dset, err2 := core.RegisterDocument(dstCtx, d.doc)
		if err1 != nil || err2 != nil {
			return isoResult{}
		}
		plan, err := dcg.Compile(sset.Root(), dset.Root())
		if err != nil {
			return isoResult{}
		}
		it := item{src: sset.Root(), dst: dset.Root(), plan: plan, rec: d.records[0]}
		it.ndr, _ = it.src.Encode(it.rec)
		it.big, _ = plan.Convert(it.ndr)
		ndrBytes += len(it.ndr)
		items = append(items, it)
	}
	var res isoResult
	res.encodeNS, _ = timeCalls(calls, func(i int) { it := &items[i%len(items)]; _, _ = it.src.Encode(it.rec) })
	res.convertNS, _ = timeCalls(calls, func(i int) { it := &items[i%len(items)]; _, _ = it.plan.Convert(it.ndr) })
	res.decodeNS, res.decodeAllocs = timeCalls(calls, func(i int) { it := &items[i%len(items)]; _, _ = it.dst.Decode(it.big) })
	res.ndrBytes = float64(ndrBytes) / float64(len(items))
	return res
}
