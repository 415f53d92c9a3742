package flight

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler serves the recorder's contents as JSON, newest first — the
// /debug/flight endpoint on the DebugMux. Query parameters filter the dump:
//
//	?conn=N        only events for connection id N
//	?stream=NAME   only events whose stream equals NAME
//	?kind=NAME     only events of that kind (snake_case, e.g. format_send);
//	               a prefix matches a family: kind=conn selects both
//	               conn_open and conn_close
//	?n=N           at most N events (default 256, capped at ring capacity)
//
// The response object carries the filtered events plus the recorder's total
// event count, so a caller can tell whether the ring has wrapped past the
// history it wanted.
func Handler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		limit := 256
		if v := q.Get("n"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				http.Error(w, "flight: bad n", http.StatusBadRequest)
				return
			}
			limit = n
		}
		var connFilter uint64
		hasConn := false
		if v := q.Get("conn"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "flight: bad conn", http.StatusBadRequest)
				return
			}
			connFilter, hasConn = n, true
		}
		var kindFilter map[string]bool
		if v := q.Get("kind"); v != "" {
			kinds := KindsWithPrefix(v)
			if k := KindFromString(v); k != 0 {
				kinds = []Kind{k}
			}
			if len(kinds) == 0 {
				http.Error(w, "flight: unknown kind "+strconv.Quote(v), http.StatusBadRequest)
				return
			}
			kindFilter = make(map[string]bool, len(kinds))
			for _, k := range kinds {
				kindFilter[k.String()] = true
			}
		}
		streamFilter := q.Get("stream")

		all := r.Snapshot() // newest first
		events := make([]Event, 0, min(limit, len(all)))
		for _, ev := range all {
			if hasConn && ev.Conn != connFilter {
				continue
			}
			if streamFilter != "" && ev.Stream != streamFilter {
				continue
			}
			if kindFilter != nil && !kindFilter[ev.Kind] {
				continue
			}
			events = append(events, ev)
			if len(events) >= limit {
				break
			}
		}

		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total  uint64  `json:"total"`
			Events []Event `json:"events"`
		}{Total: r.total(), Events: events})
	})
}
