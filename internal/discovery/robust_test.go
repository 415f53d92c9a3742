package discovery

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"openmeta/internal/faultnet"
	"openmeta/internal/obsv"
	"openmeta/internal/retry"
)

// fastRetry is a policy with negligible sleeps for tests.
func fastRetry(attempts int) retry.Policy {
	return retry.Policy{
		MaxAttempts: attempts,
		Initial:     time.Microsecond,
		Max:         100 * time.Microsecond,
		Seed:        1,
	}
}

// flakyRepo serves the repository but fails the first failN requests with
// failCode.
type flakyRepo struct {
	repo     http.Handler
	requests atomic.Int64
	failN    int64
	failCode int
	// down, when set, fails every request regardless of failN.
	down atomic.Bool
}

func (f *flakyRepo) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := f.requests.Add(1)
	if f.down.Load() || n <= f.failN {
		http.Error(w, "synthetic outage", f.failCode)
		return
	}
	f.repo.ServeHTTP(w, r)
}

func TestClientRetriesOn5xx(t *testing.T) {
	before := obsv.Default().Snapshot()
	fr := &flakyRepo{repo: newRepo(t).Handler(), failN: 2, failCode: http.StatusServiceUnavailable}
	srv := httptest.NewServer(fr)
	defer srv.Close()

	c, err := NewClient(srv.URL, withRetry(fastRetry(4)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Schema(context.Background(), "ASDOffEvent")
	if err != nil {
		t.Fatalf("Schema with retries = %v", err)
	}
	if len(s.Types) == 0 || s.Types[0].Name != "ASDOffEvent" {
		t.Fatalf("unexpected schema %+v", s)
	}
	if got := fr.requests.Load(); got != 3 {
		t.Errorf("repository saw %d requests, want 3 (two failures + success)", got)
	}
	d := obsv.Delta(before, obsv.Default().Snapshot())
	if d["retry.attempts"] < 3 {
		t.Errorf("retry.attempts delta = %d, want >= 3", d["retry.attempts"])
	}
	if d["retry.retries"] < 2 {
		t.Errorf("retry.retries delta = %d, want >= 2", d["retry.retries"])
	}
}

func TestClientRetriesExhaustedSurfaced(t *testing.T) {
	fr := &flakyRepo{repo: newRepo(t).Handler(), failCode: http.StatusInternalServerError}
	fr.down.Store(true)
	srv := httptest.NewServer(fr)
	defer srv.Close()

	c, err := NewClient(srv.URL, withRetry(fastRetry(3)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Schema(context.Background(), "ASDOffEvent")
	if !errors.Is(err, retry.ErrExhausted) {
		t.Fatalf("err = %v, want wraps retry.ErrExhausted", err)
	}
	if got := fr.requests.Load(); got != 3 {
		t.Errorf("repository saw %d requests, want 3", got)
	}
}

func TestClientDoesNotRetryNotFound(t *testing.T) {
	fr := &flakyRepo{repo: newRepo(t).Handler()}
	srv := httptest.NewServer(fr)
	defer srv.Close()

	c, err := NewClient(srv.URL, withRetry(fastRetry(5)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Schema(context.Background(), "NoSuchFormat")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := fr.requests.Load(); got != 1 {
		t.Errorf("repository saw %d requests for a 404, want 1 (permanent, no retries)", got)
	}
}

// TestClientStaleServe is the ISSUE's acceptance scenario: the repository
// returns only errors, and the client degrades to serving the cached schema
// with discovery.stale_served counting every degraded answer.
func TestClientStaleServe(t *testing.T) {
	fr := &flakyRepo{repo: newRepo(t).Handler(), failCode: http.StatusBadGateway}
	srv := httptest.NewServer(fr)
	defer srv.Close()

	reg := obsv.New()
	now := time.Unix(1000, 0)
	c, err := NewClient(srv.URL,
		withTTL(time.Minute),
		withRetry(fastRetry(2)),
		withStaleServe(time.Hour),
		withObserver(reg),
		withClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	// Healthy first fetch fills the cache.
	if _, err := c.Schema(context.Background(), "ASDOffEvent"); err != nil {
		t.Fatalf("initial Schema = %v", err)
	}
	// The repository goes down and the TTL expires.
	fr.down.Store(true)
	now = now.Add(5 * time.Minute)

	defaultBefore := obsv.Default().Snapshot()
	s, err := c.Schema(context.Background(), "ASDOffEvent")
	if err != nil {
		t.Fatalf("Schema during outage = %v, want stale-served schema", err)
	}
	if s.Types[0].Name != "ASDOffEvent" {
		t.Fatalf("stale schema = %+v", s)
	}
	snap := reg.Snapshot()
	if snap["discovery.stale_served"] != 1 {
		t.Errorf("discovery.stale_served = %d, want 1", snap["discovery.stale_served"])
	}
	if snap["discovery.fetch_errors"] < 1 {
		t.Errorf("discovery.fetch_errors = %d, want >= 1", snap["discovery.fetch_errors"])
	}
	// The acceptance criterion: retry.attempts and discovery.stale_served
	// are visible in the default registry.
	defaultSnap := obsv.Default().Snapshot()
	if _, ok := defaultSnap["discovery.stale_served"]; !ok {
		t.Error("discovery.stale_served missing from the default registry snapshot")
	}
	if obsv.Delta(defaultBefore, defaultSnap)["retry.attempts"] < 2 {
		t.Error("retry.attempts did not advance in the default registry")
	}

	// Recovery: the repository comes back and the next fetch repopulates.
	fr.down.Store(false)
	fr.failN = 0
	now = now.Add(time.Minute)
	if _, err := c.Schema(context.Background(), "ASDOffEvent"); err != nil {
		t.Fatalf("Schema after recovery = %v", err)
	}
	if got := reg.Snapshot()["discovery.stale_served"]; got != 1 {
		t.Errorf("stale_served advanced to %d after recovery, want still 1", got)
	}
}

func TestClientStaleWindowExceeded(t *testing.T) {
	fr := &flakyRepo{repo: newRepo(t).Handler(), failCode: http.StatusInternalServerError}
	srv := httptest.NewServer(fr)
	defer srv.Close()

	now := time.Unix(1000, 0)
	c, err := NewClient(srv.URL,
		withTTL(time.Minute),
		withStaleServe(10*time.Minute),
		withObserver(obsv.New()),
		withClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schema(context.Background(), "ASDOffEvent"); err != nil {
		t.Fatal(err)
	}
	fr.down.Store(true)
	now = now.Add(12 * time.Minute) // past TTL + stale window
	_, err = c.Schema(context.Background(), "ASDOffEvent")
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want wraps ErrStale", err)
	}
}

func TestClientStaleServeUnlimitedWindow(t *testing.T) {
	fr := &flakyRepo{repo: newRepo(t).Handler(), failCode: http.StatusInternalServerError}
	srv := httptest.NewServer(fr)
	defer srv.Close()

	now := time.Unix(1000, 0)
	reg := obsv.New()
	c, err := NewClient(srv.URL,
		withTTL(time.Minute),
		withStaleServe(-1),
		withObserver(reg),
		withClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schema(context.Background(), "ASDOffEvent"); err != nil {
		t.Fatal(err)
	}
	fr.down.Store(true)
	now = now.Add(1000 * time.Hour)
	if _, err := c.Schema(context.Background(), "ASDOffEvent"); err != nil {
		t.Fatalf("unlimited stale window refused: %v", err)
	}
	if got := reg.Snapshot()["discovery.stale_served"]; got != 1 {
		t.Errorf("stale_served = %d, want 1", got)
	}
}

// TestClientFaultnetTransport drives the client through the fault-injection
// transport: a torn connection, then a synthetic 503, then a clean round
// trip — the retry layer should absorb all of it.
func TestClientFaultnetTransport(t *testing.T) {
	srv := httptest.NewServer(newRepo(t).Handler())
	defer srv.Close()

	sched := faultnet.NewSchedule(
		faultnet.Fault{Kind: faultnet.Reset},
		faultnet.Fault{Kind: faultnet.HTTPStatus, N: http.StatusServiceUnavailable},
	)
	h := &http.Client{Transport: &faultnet.Transport{Sched: sched}}
	c, err := NewClient(srv.URL,
		withHTTPClient(h),
		withRetry(fastRetry(4)),
		withObserver(obsv.New()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Schema(context.Background(), "Weather")
	if err != nil {
		t.Fatalf("Schema through faultnet = %v", err)
	}
	if s.Types[0].Name != "Weather" {
		t.Fatalf("schema = %+v", s)
	}
	if sched.Remaining() != 0 {
		t.Errorf("%d scheduled faults never fired", sched.Remaining())
	}
}
