// The paper's airline operational information system (Figures 1 and 3),
// end to end in one process:
//
//   - a metadata repository serves the streams' XML Schema documents over
//     HTTP;
//   - an event backbone broker routes NDR records by stream name;
//   - capture points (FAA flight movement, NOAA weather, corporate data
//     mining) discover their formats from the repository with xml2wire and
//     publish onto the backbone — the flight feed simulates a big-endian
//     source machine;
//   - a display point subscribes to everything and decodes generically
//     (it has no compiled-in knowledge of any format);
//   - an access point subscribes to flights only and decodes into a Go
//     struct through a binding.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"openmeta"
	"openmeta/internal/airline"
)

const eventsPerStream = 5

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Metadata repository (the "publicly known intranet server") -----
	repo := openmeta.NewRepository()
	for name, doc := range airline.Schemas() {
		if err := repo.Put(name, doc); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	repoSrv := &http.Server{Handler: repo.Handler()}
	go repoSrv.Serve(ln) //nolint:errcheck // closed on shutdown
	defer repoSrv.Close()
	repoURL := "http://" + ln.Addr().String()
	fmt.Printf("metadata repository at %s (schemas: ASDOffEvent, WeatherObs, LoadTrend)\n", repoURL)

	// --- Event backbone --------------------------------------------------
	broker, err := openmeta.ListenBroker("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer broker.Close()
	fmt.Printf("event backbone at %s\n\n", broker.Addr())

	// Discovery for every participant: remote repository first, compiled-in
	// schemas as the fault-tolerant fallback of the paper's §3.3.
	client, err := openmeta.NewDiscoveryClient(repoURL)
	if err != nil {
		return err
	}
	resolver := openmeta.NewResolver(client, openmeta.StaticSchemas(airline.Schemas()))

	// --- Consumers (started first so no events are missed) ---------------
	var wg sync.WaitGroup
	displayDone := make(chan error, 1)
	accessDone := make(chan error, 1)

	displaySub, err := subscribe(broker.Addr().String(),
		airline.FlightStream, airline.WeatherStream, airline.MiningStream)
	if err != nil {
		return err
	}
	defer displaySub.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		displayDone <- displayPoint(displaySub, 3*eventsPerStream)
	}()

	accessSub, err := subscribe(broker.Addr().String(), airline.FlightStream)
	if err != nil {
		return err
	}
	defer accessSub.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		accessDone <- accessPoint(resolver, accessSub, eventsPerStream)
	}()

	// Give the two subscriptions a moment to register with the broker.
	time.Sleep(100 * time.Millisecond)

	// --- Capture points ---------------------------------------------------
	if err := capturePoints(resolver, broker.Addr().String()); err != nil {
		return err
	}

	if err := <-displayDone; err != nil {
		return fmt.Errorf("display point: %w", err)
	}
	if err := <-accessDone; err != nil {
		return fmt.Errorf("access point: %w", err)
	}
	wg.Wait()
	fmt.Println("\nall consumers satisfied; shutting down")
	return nil
}

func subscribe(addr string, streams ...string) (*openmeta.Subscriber, error) {
	ctx, err := openmeta.New(openmeta.WithArch(openmeta.NativeArch))
	if err != nil {
		return nil, err
	}
	sub, err := openmeta.DialSubscriber(addr, ctx)
	if err != nil {
		return nil, err
	}
	for _, s := range streams {
		if err := sub.Subscribe(s); err != nil {
			sub.Close()
			return nil, err
		}
	}
	return sub, nil
}

// capturePoints discovers each stream's format from the repository and
// publishes synthetic events. The flight feed registers its format for a
// simulated big-endian SPARC to exercise heterogeneity end to end.
func capturePoints(resolver *openmeta.Resolver, brokerAddr string) error {
	pub, err := openmeta.DialPublisher(brokerAddr)
	if err != nil {
		return err
	}
	defer pub.Close()

	type feed struct {
		stream  string
		schema  string
		arch    *openmeta.Arch
		root    string
		nextRec func() openmeta.Record
	}
	flights := airline.NewFlightGen(1)
	weather := airline.NewWeatherGen(2)
	mining := airline.NewMiningGen(3)
	feeds := []feed{
		{airline.FlightStream, "ASDOffEvent", openmeta.ArchSparc, "ASDOffEvent", flights.Next},
		{airline.WeatherStream, "WeatherObs", openmeta.NativeArch, "WeatherObs", weather.Next},
		{airline.MiningStream, "LoadTrend", openmeta.NativeArch, "LoadTrend", mining.Next},
	}
	for _, f := range feeds {
		pctx, err := openmeta.New(openmeta.WithArch(f.arch))
		if err != nil {
			return err
		}
		set, err := openmeta.DiscoverAndRegister(context.Background(), resolver, pctx, f.schema)
		if err != nil {
			return err
		}
		format, ok := set.Lookup(f.root)
		if !ok {
			return fmt.Errorf("stream %s: format %s missing", f.stream, f.root)
		}
		fmt.Printf("capture point %-22s discovered format %q (%s, %d bytes/record)\n",
			f.stream, format.Name, f.arch.Name, format.Size)
		for i := 0; i < eventsPerStream; i++ {
			if err := pub.PublishRecord(f.stream, format, f.nextRec()); err != nil {
				return err
			}
		}
	}
	fmt.Println()
	return nil
}

// displayPoint is a pure consumer: it learns every format from the wire and
// renders records without any compiled-in type knowledge.
func displayPoint(sub *openmeta.Subscriber, want int) error {
	for i := 0; i < want; i++ {
		ev, err := sub.Next()
		if err != nil {
			return err
		}
		rec, err := ev.Decode()
		if err != nil {
			return err
		}
		switch ev.Format.Name {
		case "ASDOffEvent":
			fmt.Printf("  [display] %-22s %v flight %v %v->%v\n",
				ev.Stream, rec["arln"], rec["fltNum"], rec["org"], rec["dest"])
		case "WeatherObs":
			fmt.Printf("  [display] %-22s %v %.1fC wind %v@%vkt\n",
				ev.Stream, rec["station"], rec["tempC"], rec["windDir"], rec["windKts"])
		case "LoadTrend":
			routes := rec["routes"].([]openmeta.Record)
			fmt.Printf("  [display] %-22s window %v-%v, %d routes\n",
				ev.Stream, rec["windowStart"], rec["windowEnd"], len(routes))
		default:
			fmt.Printf("  [display] %-22s unknown format %s\n", ev.Stream, ev.Format.Name)
		}
	}
	return nil
}

// accessPoint knows the flight format at the language level: it binds the
// discovered format to a Go struct and works with typed values.
func accessPoint(resolver *openmeta.Resolver, sub *openmeta.Subscriber, want int) error {
	bindings := make(map[openmeta.FormatID]*openmeta.Binding)
	for i := 0; i < want; i++ {
		ev, err := sub.Next()
		if err != nil {
			return err
		}
		b := bindings[ev.Format.ID]
		if b == nil {
			if b, err = ev.Format.Bind(airline.Flight{}); err != nil {
				return err
			}
			bindings[ev.Format.ID] = b
		}
		var f airline.Flight
		if err := b.Decode(ev.Data, &f); err != nil {
			return err
		}
		fmt.Printf("  [access]  %-22s gate lookup: %s%d (%s) off block %d\n",
			ev.Stream, f.Arln, f.FltNum, f.Equip, f.Off[0])
	}
	_ = resolver
	return nil
}
