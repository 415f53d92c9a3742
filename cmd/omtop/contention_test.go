package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openmeta/internal/obsv"
)

// TestRenderToleratesUnknownFamilies: daemons now export metric families omtop
// predates (runtime bridge gauges, labeled queue-wait children, tracked-lock
// histograms). Every view must render them or skip them — never error.
func TestRenderToleratesUnknownFamilies(t *testing.T) {
	cur := map[string]int64{
		"runtime.goroutines":        37,
		"runtime.heap.alloc_bytes":  1 << 20,
		"runtime.gc.pause_ns.count": 4, "runtime.gc.pause_ns.sum": 400000,
		"runtime.gc.pause_ns.max": 200000, "runtime.gc.pause_ns.p50": 80000,
		"runtime.gc.pause_ns.p95": 150000, "runtime.gc.pause_ns.p99": 190000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.count`: 12,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.sum`:   24000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.max`:   9000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.p50`:   1000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.p95`:   4000,
		`eventbus.subscriber.queue_wait_ns{conn="3"}.p99`:   8000,
		"eventbus.broker_mu.wait_ns.count":                  5,
		// A deliberately partial family: siblings missing, must fall back to
		// scalar rendering rather than failing the histogram collapse.
		"mystery.metric.p99": 123,
	}
	for name, fn := range map[string]func(string, map[string]int64, map[string]int64, time.Duration, exemplars) string{
		"render":        render,
		"renderFormats": renderFormats,
	} {
		out := fn("test", nil, cur, 0, nil)
		if name != "renderFormats" && !strings.Contains(out, "runtime.goroutines") {
			t.Fatalf("%s dropped the runtime gauge:\n%s", name, out)
		}
		if strings.Contains(out, "runtime.gc.pause_ns.p50") {
			t.Fatalf("%s leaked histogram siblings as scalars:\n%s", name, out)
		}
	}
}

// TestRunContentionOnce drives -contention against a live /debug/contention
// endpoint and checks the tracked-lock table shows up.
func TestRunContentionOnce(t *testing.T) {
	r := obsv.New()
	m := obsv.NewTrackedMutex("broker_mu", r.Scope("eventbus"))
	m.Lock()
	m.Unlock() //nolint:staticcheck // recording one acquisition is the point

	srv := httptest.NewServer(obsv.ContentionHandler(r))
	defer srv.Close()

	var buf bytes.Buffer
	err := runContention("broker", srv.URL, time.Second, 1, true, false, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "eventbus.broker_mu") {
		t.Fatalf("contention view missing tracked lock:\n%s", out)
	}
}

// TestRunContentionUnreachable: a dead or profile-less target yields a notice
// line, not an error — the graceful-degradation contract.
func TestRunContentionUnreachable(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // dead target

	var buf bytes.Buffer
	err := runContention("gone", srv.URL, time.Second, 1, true, false, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gone") {
		t.Fatalf("expected a per-target notice naming the dead target:\n%s", buf.String())
	}
}
