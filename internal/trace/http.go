package trace

import (
	"encoding/json"
	"net/http"
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

// Handler serves the tracer's recorded spans:
//
//	GET /debug/trace                 {"spans":[...]} oldest first
//	GET /debug/trace?format=chrome   Chrome trace_event JSON for
//	                                 chrome://tracing / Perfetto
//
// The JSON response also carries now_unix_ns (the server clock at snapshot
// time, against which a reader places the span timestamps) and recorded
// (spans recorded over the tracer's lifetime, so a scraper can tell when
// the ring wrapped past history it wanted). Spans from several processes
// join on their hex trace ids; no collector in this repository does so.
//
// The chrome export groups spans by trace: each distinct TraceID becomes one
// "thread" row so concurrent record journeys stack instead of interleaving.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		spans := t.Snapshot()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if req.URL.Query().Get("format") == "chrome" {
			_ = enc.Encode(chromeTrace(spans))
			return
		}
		out := struct {
			NowUnixNS int64      `json:"now_unix_ns"`
			Recorded  int64      `json:"recorded"`
			Spans     []jsonSpan `json:"spans"`
		}{NowUnixNS: time.Now().UnixNano(), Recorded: t.Recorded(), Spans: make([]jsonSpan, 0, len(spans))}
		for _, sp := range spans {
			js := jsonSpan{
				Trace:   sp.Trace.String(),
				Span:    sp.ID.String(),
				Name:    sp.Name,
				Detail:  sp.Detail,
				StartNS: sp.Start.UnixNano(),
				DurNS:   sp.Dur.Nanoseconds(),
			}
			if !sp.Parent.IsZero() {
				js.Parent = sp.Parent.String()
			}
			out.Spans = append(out.Spans, js)
		}
		_ = enc.Encode(out)
	})
}

// chromeTrace converts spans to the trace_event JSON object format.
func chromeTrace(spans []Span) map[string]interface{} {
	tids := make(map[TraceID]int)
	events := make([]chromeEvent, 0, len(spans))
	for _, sp := range spans {
		tid, ok := tids[sp.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[sp.Trace] = tid
		}
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  "openmeta",
			Ph:   "X",
			TS:   float64(sp.Start.UnixNano()) / 1e3,
			Dur:  float64(sp.Dur.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  tid,
			Args: map[string]string{
				"trace": sp.Trace.String(),
				"span":  sp.ID.String(),
			},
		}
		if !sp.Parent.IsZero() {
			ev.Args["parent"] = sp.Parent.String()
		}
		if sp.Detail != "" {
			ev.Args["detail"] = sp.Detail
		}
		events = append(events, ev)
	}
	return map[string]interface{}{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
	}
}
