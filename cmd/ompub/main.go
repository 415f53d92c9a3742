// Command ompub publishes records onto an event backbone stream. It is the
// text-to-binary gateway of the open-metadata design: records arrive as XML
// text messages (on stdin, one document per line) or as built-in synthetic
// airline events, are bound to a format discovered from an XML Schema, and
// leave as efficient binary NDR.
//
// Usage:
//
//	ompub -broker 127.0.0.1:8701 -stream test -schema flight.xsd -type ASDOffEvent < records.xml
//	ompub -broker 127.0.0.1:8701 -demo flights -n 100
//	ompub -broker 127.0.0.1:8701 -demo flights -reconnect
//
// With -reconnect the publisher survives broker restarts: it redials with
// backoff, re-announces its streams and re-sends format metadata before
// continuing. Demo publishing is paced with -pace (delay between events),
// useful for feeding a live broker at a steady rate.
//
// With -debug-addr the publisher serves its own /metrics and the two views
// of its recorder: the spans -trace-sample keeps at /debug/trace and the
// protocol events, a reconnect's give-up among them, at /debug/flight.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"openmeta/internal/airline"
	"openmeta/internal/core"
	"openmeta/internal/eventbus"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/retry"
	"openmeta/internal/trace"
	"openmeta/internal/xmlwire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ompub:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ompub", flag.ContinueOnError)
	broker := fs.String("broker", "127.0.0.1:8701", "broker address")
	stream := fs.String("stream", "", "stream to publish on")
	schemaFile := fs.String("schema", "", "XML Schema document describing the records")
	typeName := fs.String("type", "", "complexType name within the schema (default: last)")
	demo := fs.String("demo", "", "publish synthetic events: flights | weather | mining")
	n := fs.Int("n", 10, "number of demo events")
	pace := fs.Duration("pace", 0, "delay between demo events (0 = publish as fast as possible)")
	seed := fs.Int64("seed", 1, "demo generator seed")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/flight, /debug/trace and /debug/pprof on this address")
	reconnect := fs.Bool("reconnect", false, "redial the broker with backoff when the connection breaks")
	dialTimeout := fs.Duration("dial-timeout", 0, "per-attempt broker dial timeout (0 = default 10s)")
	traceSample := fs.Int("trace-sample", 0, "record spans for 1 in N published records (1 = all, 0 = tracing off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	trace.Default().SetSampling(*traceSample)
	stopRuntime := obsv.StartRuntimeMetrics(obsv.Default(), time.Second)
	defer stopRuntime()
	if *debugAddr != "" {
		dbg, err := obsv.ListenAndServeDebug(*debugAddr, obsv.Default())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ompub: metrics and pprof at http://%s/metrics\n", dbg)
	}

	pctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		return err
	}
	var copts []eventbus.ClientOption
	if *reconnect {
		copts = append(copts, eventbus.WithReconnect(retry.Policy{}))
	}
	if *dialTimeout > 0 {
		copts = append(copts, eventbus.WithDialTimeout(*dialTimeout))
	}
	pub, err := eventbus.DialPublisher(*broker, copts...)
	if err != nil {
		return err
	}
	defer pub.Close()

	if *demo != "" {
		return runDemo(pctx, pub, *demo, *stream, *n, *seed, *pace)
	}
	if *stream == "" || *schemaFile == "" {
		return errors.New("-stream and -schema are required (or -demo)")
	}
	set, err := core.RegisterFile(pctx, *schemaFile)
	if err != nil {
		return err
	}
	format := set.Root()
	if *typeName != "" {
		var ok bool
		if format, ok = set.Lookup(*typeName); !ok {
			return fmt.Errorf("schema does not define %q", *typeName)
		}
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	count := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := xmlwire.DecodeRecord(format, line)
		if err != nil {
			return fmt.Errorf("input record %d: %w", count+1, err)
		}
		if err := pub.PublishRecord(*stream, format, rec); err != nil {
			return err
		}
		count++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ompub: published %d records on %s as %q\n", count, *stream, format.Name)
	return nil
}

func runDemo(pctx *pbio.Context, pub *eventbus.Publisher, demo, stream string, n int, seed int64, pace time.Duration) error {
	var (
		doc      string
		typeName string
		next     func() pbio.Record
	)
	switch demo {
	case "flights":
		doc, typeName = airline.FlightSchema, "ASDOffEvent"
		if stream == "" {
			stream = airline.FlightStream
		}
		g := airline.NewFlightGen(seed)
		next = g.Next
	case "weather":
		doc, typeName = airline.WeatherSchema, "WeatherObs"
		if stream == "" {
			stream = airline.WeatherStream
		}
		g := airline.NewWeatherGen(seed)
		next = g.Next
	case "mining":
		doc, typeName = airline.MiningSchema, "LoadTrend"
		if stream == "" {
			stream = airline.MiningStream
		}
		g := airline.NewMiningGen(seed)
		next = g.Next
	default:
		return fmt.Errorf("unknown demo %q (flights | weather | mining)", demo)
	}
	set, err := core.RegisterDocument(pctx, []byte(doc))
	if err != nil {
		return err
	}
	format, ok := set.Lookup(typeName)
	if !ok {
		return fmt.Errorf("demo schema missing %q", typeName)
	}
	for i := 0; i < n; i++ {
		if err := pub.PublishRecord(stream, format, next()); err != nil {
			return err
		}
		if pace > 0 && i < n-1 {
			time.Sleep(pace)
		}
	}
	fmt.Fprintf(os.Stderr, "ompub: published %d %s events on %s\n", n, demo, stream)
	return nil
}
