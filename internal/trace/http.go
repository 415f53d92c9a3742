package trace

import (
	"cmp"
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// jsonSpan is the /debug/trace JSON shape: hex IDs, absolute nanosecond
// timestamps, durations in nanoseconds.
type jsonSpan struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartNS int64  `json:"start_unix_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// chromeEvent is one Chrome trace_event "complete" event ("ph":"X"),
// loadable in chrome://tracing and Perfetto. Timestamps are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// SpanHandler serves the recorder's spans at /debug/trace, oldest first,
// with now_unix_ns (the server clock) and recorded (spans recorded over the
// recorder's lifetime, so a scraper can tell the ring wrapped). Processes'
// spans join on their hex trace ids. ?format=chrome serves Chrome
// trace_event JSON for chrome://tracing and Perfetto instead, one "thread"
// row per trace so concurrent record journeys stack instead of interleaving.
func SpanHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spans, recorded := r.Spans()
		out := make([]jsonSpan, 0, len(spans))
		for _, sp := range spans {
			js := jsonSpan{Trace: sp.Trace.String(), Span: sp.ID.String(), Name: sp.Name, Detail: sp.Detail,
				StartNS: sp.Start.UnixNano(), DurNS: sp.Dur.Nanoseconds()}
			if !sp.Parent.IsZero() {
				js.Parent = sp.Parent.String()
			}
			out = append(out, js)
		}
		if req.URL.Query().Get("format") == "chrome" {
			writeJSON(w, chromeTrace(out))
			return
		}
		writeJSON(w, struct {
			NowUnixNS int64      `json:"now_unix_ns"`
			Recorded  uint64     `json:"recorded"`
			Spans     []jsonSpan `json:"spans"`
		}{time.Now().UnixNano(), recorded, out})
	})
}

// chromeTrace converts spans to the trace_event JSON object format.
func chromeTrace(spans []jsonSpan) map[string]any {
	tids := make(map[string]int)
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		if _, ok := tids[sp.Trace]; !ok {
			tids[sp.Trace] = len(tids) + 1
		}
		ev := chromeEvent{Name: sp.Name, Cat: "openmeta", Ph: "X", TS: float64(sp.StartNS) / 1e3,
			Dur: float64(sp.DurNS) / 1e3, PID: 1, TID: tids[sp.Trace],
			Args: map[string]string{"trace": sp.Trace, "span": sp.Span}}
		if sp.Parent != "" {
			ev.Args["parent"] = sp.Parent
		}
		if sp.Detail != "" {
			ev.Args["detail"] = sp.Detail
		}
		events = append(events, ev)
	}
	return map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}
}

// EventHandler serves the recorder's protocol events at /debug/flight,
// newest first, with total (events recorded over the recorder's lifetime,
// so a caller can tell the ring wrapped), filtered by query parameters:
//
//	?conn=N        only events for connection id N
//	?stream=NAME   only events whose stream equals NAME
//	?kind=NAME     only events of that kind (snake_case, e.g. format_send);
//	               a prefix matches a family: kind=conn selects both
//	               conn_open and conn_close
//	?n=N           at most N events (default 256)
func EventHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		limit, err := strconv.Atoi(cmp.Or(q.Get("n"), "256"))
		conn, cerr := strconv.ParseUint(q.Get("conn"), 10, 64)
		hasConn, stream, kind := q.Get("conn") != "", q.Get("stream"), q.Get("kind")
		kinds := map[string]bool{}
		for _, k := range kindsWithPrefix(kind) {
			kinds[k.String()] = true
		}
		switch {
		case err != nil || limit < 1:
			http.Error(w, "flight: bad n", http.StatusBadRequest)
			return
		case hasConn && cerr != nil:
			http.Error(w, "flight: bad conn", http.StatusBadRequest)
			return
		case kind != "" && len(kinds) == 0:
			http.Error(w, "flight: unknown kind "+strconv.Quote(kind), http.StatusBadRequest)
			return
		}
		all, total := r.Events()
		events := make([]Event, 0, min(limit, len(all)))
		for _, ev := range all {
			if len(events) < limit && (!hasConn || ev.Conn == conn) && (stream == "" || ev.Stream == stream) &&
				(kind == "" || kinds[ev.Kind]) {
				events = append(events, ev)
			}
		}
		writeJSON(w, struct {
			Total  uint64  `json:"total"`
			Events []Event `json:"events"`
		}{total, events})
	})
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
