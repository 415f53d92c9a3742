package obsv

import (
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"

	"openmeta/internal/trace"
)

// debugEndpoint is one endpoint DebugMux mounts, with the one-line
// description shown on the /debug index page.
type debugEndpoint struct {
	path string
	desc string
	h    http.Handler
}

// DebugMux returns the debug endpoint served behind the daemons'
// -debug-addr flag:
//
//	/debug            index of every mounted endpoint
//	/metrics          Prometheus text exposition of the registry, or
//	                  OpenMetrics with exemplars (see MetricsHandler)
//	/debug/trace      the recorder's spans (see the trace package)
//	/debug/flight     the recorder's protocol events, newest first
//	/healthz          liveness: 200 while the server answers
//	/readyz           readiness: 200 once every registered probe passes
//	/debug/pprof/...  net/http/pprof profiles (mutex and block are populated
//	                  once the daemon runs with -contention-rate)
//
// Health endpoints use the process-wide probe set and the two recorder
// views the process-wide recorder; use DebugMuxFor to serve isolated
// instances.
func DebugMux(r *Registry) *http.ServeMux {
	return DebugMuxFor(r, DefaultHealth(), trace.Default())
}

// DebugMuxFor is DebugMux with the health probe set and recorder made
// explicit, for processes (and tests) that keep per-component instances
// instead of the process-wide defaults.
func DebugMuxFor(r *Registry, h *Health, rec *trace.Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	endpoints := []debugEndpoint{
		{"/metrics", "Prometheus text exposition of the registry (Accept: application/openmetrics-text for exemplars)", r.MetricsHandler()},
		{"/debug/trace", "recent spans, oldest first (?format=chrome for chrome://tracing and Perfetto)", trace.SpanHandler(rec)},
		{"/debug/flight", "protocol flight recorder, newest first (?conn=&stream=&kind=&n=)", trace.EventHandler(rec)},
		{"/healthz", "liveness: 200 while the process serves HTTP", h.LiveHandler()},
		{"/readyz", "readiness: 200 once every registered probe passes", h.ReadyHandler()},
		{"/debug/pprof/", "net/http/pprof profile index (mutex and block profiles need -contention-rate)", http.HandlerFunc(pprof.Index)},
	}
	for _, e := range endpoints {
		mux.Handle(e.path, e.h)
	}
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug", debugIndex(append(endpoints, debugEndpoint{path: "/debug", desc: "this index"})))
	return mux
}

// debugIndex serves the /debug index page: every mounted endpoint with its
// one-line description, so operators discover the debug surface without the
// README. Rendered as minimal HTML that still reads cleanly through curl.
func debugIndex(endpoints []debugEndpoint) http.Handler {
	sorted := make([]debugEndpoint, len(endpoints))
	copy(sorted, endpoints)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].path < sorted[j].path })
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>debug endpoints</title></head><body>\n")
		fmt.Fprint(w, "<h1>debug endpoints</h1>\n<table>\n")
		for _, e := range sorted {
			fmt.Fprintf(w, "<tr><td><a href=%q>%s</a></td><td>%s</td></tr>\n",
				e.path, html.EscapeString(e.path), html.EscapeString(e.desc))
		}
		fmt.Fprint(w, "</table>\n</body></html>\n")
	})
}

// ListenAndServeDebug starts the DebugMux on addr in a background goroutine
// and returns the bound address ("host:0" picks a free port). The server
// lives for the rest of the process — it is the daemons' -debug-addr
// endpoint, torn down with the process itself.
func ListenAndServeDebug(addr string, r *Registry) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: DebugMux(r)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}
