package openmeta

import (
	"net/http"

	"openmeta/internal/eventbus"
	"openmeta/internal/flight"
	"openmeta/internal/obsv"
)

// FlightRecorder is a fixed-capacity ring of protocol events — a black box
// that is always on: connection churn, format metadata, slow-subscriber
// stalls, reconnect attempts, discovery fetch outcomes and retry give-ups.
// It keeps connection history, not traffic: no event fires
// once per record (record counts are the eventbus.wire.* metrics), so the
// history survives any amount of traffic. Every component records into the
// process-wide default recorder unless handed its own via
// WithFlightRecorder or WithBusFlightRecorder.
type FlightRecorder = flight.Recorder

// FlightEvent is one recorded protocol event, as /debug/flight serves it.
type FlightEvent = flight.Event

// NewFlightRecorder returns a recorder keeping the most recent capacity
// events (capacity <= 0 uses the default of 2048).
func NewFlightRecorder(capacity int) *FlightRecorder { return flight.New(capacity) }

// DefaultFlightRecorder returns the process-wide recorder every component
// records into by default.
func DefaultFlightRecorder() *FlightRecorder { return flight.Default() }

// FlightSnapshot returns the default recorder's retained events, newest
// first.
func FlightSnapshot() []FlightEvent { return flight.Default().Snapshot() }

// FlightHandler serves the default recorder's events as JSON, newest first,
// filterable with ?n=, ?conn=, ?stream= and ?kind=. DebugHandler mounts it
// at /debug/flight.
func FlightHandler() http.Handler { return flight.Handler(flight.Default()) }

// WithFlightRecorder directs a broker's flight events into r instead of the
// default recorder.
func WithFlightRecorder(r *FlightRecorder) BrokerOption { return eventbus.WithFlightRecorder(r) }

// WithBusFlightRecorder directs a publisher's or subscriber's flight events
// into r instead of the default recorder.
func WithBusFlightRecorder(r *FlightRecorder) BusClientOption {
	return eventbus.WithClientFlightRecorder(r)
}

// RegisterHealthProbe registers (or, with a nil check, removes) a named
// readiness probe on the process-default health set. Probes run on every
// /readyz request; any probe returning an error flips readiness to 503.
// Liveness (/healthz) deliberately ignores probes — a process that can answer
// is alive, and restart loops help nothing.
func RegisterHealthProbe(name string, check func() error) {
	obsv.RegisterProbe(name, check)
}

// HealthHandler serves liveness: always 200 while the process can answer,
// with uptime. DebugHandler mounts it at /healthz.
func HealthHandler() http.Handler { return obsv.DefaultHealth().LiveHandler() }

// ReadyHandler serves readiness: 200 while every registered probe passes,
// 503 with per-probe detail otherwise. DebugHandler mounts it at /readyz.
func ReadyHandler() http.Handler { return obsv.DefaultHealth().ReadyHandler() }
