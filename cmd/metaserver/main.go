// Command metaserver runs a metadata repository: the "publicly known
// intranet server" of the paper's §4.4, serving XML Schema message
// descriptions over HTTP so applications can discover formats at run time.
//
// Usage:
//
//	metaserver -addr :8700 -dir ./schemas          # serve *.xsd from a directory
//	metaserver -addr :8700 -builtin                # serve the airline scenario schemas
//
// Documents are validated on load; GET /schemas/ lists names, GET
// /schemas/<name> returns a document with an ETag for revalidation. With
// -debug-addr a second listener serves /metrics, the recorder's protocol
// events (/debug/flight) and spans (/debug/trace), /healthz, /readyz and
// pprof (GET /debug lists everything);
// -contention-rate turns on the runtime's mutex and block profiles there.
// Diagnostics go to stderr via log/slog; -log-format selects text or json.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"log/slog"

	"openmeta/internal/airline"
	"openmeta/internal/discovery"
	"openmeta/internal/obsv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "metaserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("metaserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8700", "listen address")
	dir := fs.String("dir", "", "directory of <name>.xsd schema documents to serve")
	builtin := fs.Bool("builtin", false, "serve the built-in airline scenario schemas")
	writable := fs.Bool("writable", false, "accept PUT/DELETE so streams can publish their own metadata")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/flight, /debug/trace, /healthz, /readyz and /debug/pprof on this address")
	exemplarsOn := fs.Bool("exemplars", true, "attach trace exemplars to latency histogram buckets (OpenMetrics /metrics)")
	contentionRate := fs.Int("contention-rate", 0, "runtime mutex/block profiling rate for /debug/pprof/mutex and /debug/pprof/block (0 = off)")
	logFormat := fs.String("log-format", "text", "diagnostic log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obsv.NewSlog(*logFormat, os.Stderr)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	obsv.SetExemplars(*exemplarsOn)
	runtime.SetMutexProfileFraction(*contentionRate)
	runtime.SetBlockProfileRate(*contentionRate)
	stopRuntime := obsv.StartRuntimeMetrics(obsv.Default(), time.Second)
	defer stopRuntime()

	repo := discovery.NewRepository()
	repo.SetWritable(*writable)
	loaded := 0
	if *builtin {
		for name, doc := range airline.Schemas() {
			if err := repo.Put(name, doc); err != nil {
				return fmt.Errorf("builtin schema %s: %w", name, err)
			}
			loaded++
		}
	}
	if *dir != "" {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".xsd") {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(*dir, e.Name()))
			if err != nil {
				return err
			}
			name := strings.TrimSuffix(e.Name(), ".xsd")
			if err := repo.Put(name, string(raw)); err != nil {
				return fmt.Errorf("schema %s: %w", name, err)
			}
			loaded++
		}
	}
	if loaded == 0 && !*writable {
		return fmt.Errorf("no schemas loaded; pass -dir and/or -builtin (or -writable for an empty, publishable repository)")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("serving schemas", "component", "metaserver",
		"count", loaded, "url", "http://"+ln.Addr().String()+discovery.SchemaPathPrefix)

	// Readiness: a read-only repository that has lost all its documents
	// cannot answer discovery, so it must stop advertising ready.
	canWrite := *writable
	obsv.RegisterProbe("repository", func() error {
		if len(repo.Names()) == 0 && !canWrite {
			return errors.New("repository empty and read-only")
		}
		return nil
	})

	if *debugAddr != "" {
		dbg, err := obsv.ListenAndServeDebug(*debugAddr, obsv.Default())
		if err != nil {
			return err
		}
		logger.Info("debug endpoints up", "component", "metaserver",
			"addr", dbg.String(), "paths", "/debug /metrics /debug/flight /debug/trace /healthz /readyz /debug/pprof")
	}
	for _, n := range repo.Names() {
		logger.Info("schema loaded", "component", "metaserver", "name", n)
	}
	mux := http.NewServeMux()
	mux.Handle(discovery.SchemaPathPrefix, repo.Handler())
	srv := &http.Server{Handler: mux}
	return srv.Serve(ln)
}
