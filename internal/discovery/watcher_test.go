package discovery

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"openmeta/internal/testutil"
	"openmeta/internal/xmlschema"
)

func nextUpdate(t *testing.T, w *Watcher) Update {
	t.Helper()
	select {
	case u, ok := <-w.Updates():
		if !ok {
			t.Fatal("updates channel closed")
		}
		return u
	case <-time.After(5 * time.Second):
		t.Fatal("no update within deadline")
	}
	panic("unreachable")
}

func TestWatcherDeliversInitialAndChangedVersions(t *testing.T) {
	repo := newRepo(t)
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()
	client, err := NewClient(srv.URL, withTTL(0)) // revalidate every poll
	if err != nil {
		t.Fatal(err)
	}
	w := NewWatcher(client, 10*time.Millisecond)
	defer w.Close()
	w.Add("Weather")

	first := nextUpdate(t, w)
	if first.Err != nil || first.Name != "Weather" {
		t.Fatalf("first update = %+v", first)
	}
	if first.Schema.Types[0].Elements[1].Name != "tempC" {
		t.Errorf("initial schema wrong: %+v", first.Schema.Types[0])
	}

	// Change the document on the repository.
	changed := strings.Replace(docWeather, "tempC", "tempF", 1)
	if err := repo.Put("Weather", changed); err != nil {
		t.Fatal(err)
	}
	second := nextUpdate(t, w)
	if second.Err != nil {
		t.Fatalf("second update err = %v", second.Err)
	}
	if second.Schema.Types[0].Elements[1].Name != "tempF" {
		t.Errorf("changed schema not delivered: %+v", second.Schema.Types[0])
	}

	// No further updates while nothing changes.
	select {
	case u := <-w.Updates():
		t.Fatalf("spurious update: %+v", u)
	case <-time.After(80 * time.Millisecond):
	}
}

func TestWatcherReportsFailuresOnce(t *testing.T) {
	repo := newRepo(t)
	srv := httptest.NewServer(repo.Handler())
	client, err := NewClient(srv.URL, withTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWatcher(client, 10*time.Millisecond)
	defer w.Close()
	w.Add("Weather")
	// A fetch gets one poll interval, and on a loaded machine the first one
	// has run out of it: that is a failure episode the watcher reports and
	// then recovers from, so wait for the schema rather than for one update.
	testutil.WaitFor(t, 5*time.Second, "the first version of Weather", func() bool {
		select {
		case u := <-w.Updates():
			return u.Err == nil
		default:
			return false
		}
	})

	srv.Close() // repository goes away
	u := nextUpdate(t, w)
	if u.Err == nil {
		t.Fatalf("expected failure update, got %+v", u)
	}
	// Failure is not re-reported every poll.
	select {
	case u2 := <-w.Updates():
		t.Fatalf("failure re-reported: %+v", u2)
	case <-time.After(80 * time.Millisecond):
	}
}

func TestWatcherRecoveryRedelivers(t *testing.T) {
	repo := newRepo(t)
	flaky := &togglingSource{inner: StaticSource{"Weather": docWeather}}
	_ = repo
	w := NewWatcher(flaky, 10*time.Millisecond)
	defer w.Close()
	flaky.setFail(true)
	w.Add("Weather")
	if u := nextUpdate(t, w); u.Err == nil {
		t.Fatalf("expected failure first, got %+v", u)
	}
	flaky.setFail(false)
	u := nextUpdate(t, w)
	if u.Err != nil || u.Schema == nil {
		t.Fatalf("recovery update = %+v", u)
	}
}

func TestWatcherRemoveAndClose(t *testing.T) {
	src := StaticSource{"Weather": docWeather}
	w := NewWatcher(src, 10*time.Millisecond)
	w.Add("Weather")
	if u := nextUpdate(t, w); u.Err != nil {
		t.Fatal(u.Err)
	}
	w.Remove("Weather")
	select {
	case u := <-w.Updates():
		t.Fatalf("update after Remove: %+v", u)
	case <-time.After(60 * time.Millisecond):
	}
	w.Close()
	w.Close() // idempotent
	if _, ok := <-w.Updates(); ok {
		t.Error("updates channel not closed after Close")
	}
	if w.Dropped() != 0 {
		t.Errorf("dropped = %d", w.Dropped())
	}
}

type togglingSource struct {
	inner Source
	mu    sync.Mutex
	fail  bool
}

func (s *togglingSource) setFail(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail = v
}

func (s *togglingSource) Schema(ctx context.Context, name string) (*xmlschema.Schema, error) {
	s.mu.Lock()
	fail := s.fail
	s.mu.Unlock()
	if fail {
		return nil, errors.New("toggled off")
	}
	return s.inner.Schema(ctx, name)
}

func (s *togglingSource) Describe() string { return "toggling" }
