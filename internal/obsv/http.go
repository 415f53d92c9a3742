package obsv

import (
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"

	"openmeta/internal/flight"
)

// DebugEndpoint is an extra handler mounted onto DebugMux alongside the
// built-in endpoints — how the daemons attach /debug/trace
// without obsv importing the trace package. Desc is the one-line description
// shown on the /debug index page.
type DebugEndpoint struct {
	Path    string
	Handler http.Handler
	Desc    string
}

// DebugMux returns the debug endpoint served behind the daemons'
// -debug-addr flag:
//
//	/debug            index of every mounted endpoint
//	/metrics          Prometheus text exposition of the registry, or
//	                  OpenMetrics with exemplars (see MetricsHandler)
//	/debug/flight     flight-recorder dump (see the flight package)
//	/healthz          liveness: 200 while the server answers
//	/readyz           readiness: 200 once every registered probe passes
//	/debug/pprof/...  net/http/pprof profiles (mutex and block are populated
//	                  once the daemon runs with -contention-rate)
//
// Additional endpoints (such as the tracer's /debug/trace) are mounted via
// extra. Health endpoints use the process-wide probe set and the flight
// endpoint the process-wide recorder; use DebugMuxFor to serve isolated
// instances.
func DebugMux(r *Registry, extra ...DebugEndpoint) *http.ServeMux {
	return DebugMuxFor(r, DefaultHealth(), flight.Default(), extra...)
}

// DebugMuxFor is DebugMux with the health probe set and flight recorder made
// explicit, for processes (and tests) that keep per-component instances
// instead of the process-wide defaults.
func DebugMuxFor(r *Registry, h *Health, rec *flight.Recorder, extra ...DebugEndpoint) *http.ServeMux {
	mux := http.NewServeMux()
	index := []DebugEndpoint{
		{Path: "/debug", Desc: "this index"},
		{Path: "/metrics", Desc: "Prometheus text exposition of the registry (Accept: application/openmetrics-text for exemplars)"},
		{Path: "/debug/flight", Desc: "protocol flight recorder, newest first (?conn=&stream=&kind=&n=)"},
		{Path: "/healthz", Desc: "liveness: 200 while the process serves HTTP"},
		{Path: "/readyz", Desc: "readiness: 200 once every registered probe passes"},
		{Path: "/debug/pprof/", Desc: "net/http/pprof profile index (mutex and block profiles need -contention-rate)"},
	}
	mux.Handle("/metrics", r.MetricsHandler())
	mux.Handle("/debug/flight", flight.Handler(rec))
	mux.Handle("/healthz", h.LiveHandler())
	mux.Handle("/readyz", h.ReadyHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, e := range extra {
		if e.Path != "" && e.Handler != nil {
			mux.Handle(e.Path, e.Handler)
			index = append(index, e)
		}
	}
	mux.Handle("/debug", debugIndex(index))
	return mux
}

// debugIndex serves the /debug index page: every mounted endpoint with its
// one-line description, so operators discover the debug surface without the
// README. Rendered as minimal HTML that still reads cleanly through curl.
func debugIndex(endpoints []DebugEndpoint) http.Handler {
	sorted := make([]DebugEndpoint, len(endpoints))
	copy(sorted, endpoints)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>debug endpoints</title></head><body>\n")
		fmt.Fprint(w, "<h1>debug endpoints</h1>\n<table>\n")
		for _, e := range sorted {
			desc := e.Desc
			if desc == "" {
				desc = "(no description)"
			}
			fmt.Fprintf(w, "<tr><td><a href=%q>%s</a></td><td>%s</td></tr>\n",
				e.Path, html.EscapeString(e.Path), html.EscapeString(desc))
		}
		fmt.Fprint(w, "</table>\n</body></html>\n")
	})
}

// ListenAndServeDebug starts the DebugMux on addr in a background goroutine
// and returns the bound address ("host:0" picks a free port). The server
// lives for the rest of the process — it is the daemons' -debug-addr
// endpoint, torn down with the process itself.
func ListenAndServeDebug(addr string, r *Registry, extra ...DebugEndpoint) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: DebugMux(r, extra...)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}
