// Command omsub subscribes to event backbone streams and prints arriving
// records, decoding them entirely from the wire's format metadata. With
// -fields it requests a format-scoped slice of the stream (§4.4 of the
// paper): the broker projects every record and hidden fields never arrive.
//
// Usage:
//
//	omsub -broker 127.0.0.1:8701 -stream faa.asd.departures
//	omsub -broker 127.0.0.1:8701 -stream faa.asd.departures -fields cntrID,fltNum
//	omsub -broker 127.0.0.1:8701 -list
//	omsub -broker 127.0.0.1:8701 -stream faa.asd.departures -reconnect
//
// With -reconnect the subscriber survives broker restarts: it redials with
// backoff and replays every subscription, field scopes intact.
//
// With -debug-addr the subscriber serves its own /metrics and the two views
// of its recorder: the spans -trace-sample keeps at /debug/trace and the
// protocol events at /debug/flight.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

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
		fmt.Fprintln(os.Stderr, "omsub:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("omsub", flag.ContinueOnError)
	broker := fs.String("broker", "127.0.0.1:8701", "broker address")
	stream := fs.String("stream", "", "stream to subscribe to (repeatable via commas)")
	fields := fs.String("fields", "", "comma-separated field scope (format-scoping)")
	list := fs.Bool("list", false, "list streams and exit")
	asXML := fs.Bool("xml", false, "print records as XML text messages")
	count := fs.Int("n", 0, "exit after n records (0 = run until killed)")
	reconnect := fs.Bool("reconnect", false, "redial the broker with backoff when the connection breaks, replaying subscriptions")
	traceSample := fs.Int("trace-sample", 0, "record spans for 1 in N traced records received (1 = all, 0 = tracing off)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/trace, /debug/flight and /debug/pprof on this address")
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
		fmt.Fprintf(os.Stderr, "omsub: metrics and pprof at http://%s/metrics\n", dbg)
	}
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		return err
	}
	var copts []eventbus.ClientOption
	if *reconnect {
		copts = append(copts, eventbus.WithReconnect(retry.Policy{}))
	}
	sub, err := eventbus.DialSubscriber(*broker, ctx, copts...)
	if err != nil {
		return err
	}
	defer sub.Close()

	if *list {
		names, err := sub.Streams()
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	}
	if *stream == "" {
		return errors.New("-stream is required (or -list)")
	}
	for _, name := range strings.Split(*stream, ",") {
		if *fields != "" {
			if err := sub.SubscribeFields(name, strings.Split(*fields, ",")...); err != nil {
				return err
			}
		} else if err := sub.Subscribe(name); err != nil {
			return err
		}
	}
	for n := 0; *count == 0 || n < *count; n++ {
		ev, err := sub.Next()
		if err != nil {
			return err
		}
		rec, err := ev.Decode()
		if err != nil {
			return err
		}
		if *asXML {
			text, err := xmlwire.EncodeRecord(ev.Format, rec)
			if err != nil {
				return err
			}
			fmt.Printf("%s %s\n", ev.Stream, text)
			continue
		}
		fmt.Printf("%s [%s] %v\n", ev.Stream, ev.Format.Name, rec)
	}
	return nil
}
