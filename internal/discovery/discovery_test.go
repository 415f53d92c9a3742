package discovery

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"openmeta/internal/obsv"
	"openmeta/internal/trace"
)

const docB = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="ASDOffEvent">
    <xsd:element name="cntrID" type="xsd:string" />
    <xsd:element name="fltNum" type="xsd:integer" />
    <xsd:element name="eta" type="xsd:unsigned-long" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>`

const docWeather = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="Weather">
    <xsd:element name="station" type="xsd:string" />
    <xsd:element name="tempC" type="xsd:double" />
  </xsd:complexType>
</xsd:schema>`

func newRepo(t *testing.T) *Repository {
	t.Helper()
	repo := NewRepository()
	if err := repo.Put("ASDOffEvent", docB); err != nil {
		t.Fatal(err)
	}
	if err := repo.Put("Weather", docWeather); err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestRepositoryPutValidates(t *testing.T) {
	repo := NewRepository()
	if err := repo.Put("Bad", "<garbage/>"); err == nil {
		t.Error("invalid document accepted")
	}
	if err := repo.Put("Good", docB); err != nil {
		t.Fatal(err)
	}
	doc, etag, err := repo.Get("Good")
	if err != nil || doc != docB || etag == "" {
		t.Errorf("Get = %q, %q, %v", doc[:20], etag, err)
	}
	if _, _, err := repo.Get("Missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(Missing) err = %v", err)
	}
}

func TestRepositoryNamesAndDelete(t *testing.T) {
	repo := newRepo(t)
	repo.SetGenerator("Dyn", func(*http.Request) (string, error) { return docB, nil })
	names := repo.Names()
	want := []string{"ASDOffEvent", "Dyn", "Weather"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("Names = %v, want %v", names, want)
	}
	repo.Delete("Weather")
	if len(repo.Names()) != 2 {
		t.Errorf("after delete: %v", repo.Names())
	}
}

func TestHTTPServeAndClient(t *testing.T) {
	repo := newRepo(t)
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()

	c, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Schema(context.Background(), "ASDOffEvent")
	if err != nil {
		t.Fatal(err)
	}
	if s.Types[0].Name != "ASDOffEvent" || len(s.Types[0].Elements) != 3 {
		t.Errorf("schema = %+v", s.Types[0])
	}
	if _, err := c.Schema(context.Background(), "Nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing schema err = %v", err)
	}

	// Index listing.
	resp, err := http.Get(srv.URL + SchemaPathPrefix)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "Weather") {
		t.Errorf("index = %q", body)
	}

	// Non-GET rejected.
	resp, err = http.Post(srv.URL+SchemaPathPrefix+"X", "text/xml", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}

	// .xsd suffix also resolves.
	resp, err = http.Get(srv.URL + SchemaPathPrefix + "Weather.xsd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET Weather.xsd = %d", resp.StatusCode)
	}
}

func TestClientCachingAndRevalidation(t *testing.T) {
	repo := newRepo(t)
	var hits atomic.Int64
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		repo.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(counting)
	defer srv.Close()

	now := time.Unix(1000, 0)
	c, err := NewClient(srv.URL, withTTL(time.Minute), withClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Schema(ctx, "Weather"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schema(ctx, "Weather"); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1 {
		t.Errorf("hits = %d, want 1 (TTL cache)", hits.Load())
	}

	// TTL expiry triggers a conditional request answered 304.
	now = now.Add(2 * time.Minute)
	if _, err := c.Schema(ctx, "Weather"); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 2 {
		t.Errorf("hits = %d, want 2", hits.Load())
	}

	// Changing the document serves new content after expiry.
	changed := strings.Replace(docWeather, "tempC", "tempF", 1)
	if err := repo.Put("Weather", changed); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	s, err := c.Schema(ctx, "Weather")
	if err != nil {
		t.Fatal(err)
	}
	if s.Types[0].Elements[1].Name != "tempF" {
		t.Errorf("stale schema after update: %+v", s.Types[0].Elements[1])
	}

	// Invalidate forces a refetch.
	c.Invalidate("Weather")
	if _, err := c.Schema(ctx, "Weather"); err != nil {
		t.Fatal(err)
	}
	c.Invalidate("")
	if _, err := c.Schema(ctx, "Weather"); err != nil {
		t.Fatal(err)
	}
}

// TestClientDoesNotRetryNotFound: absence is an answer, given after one
// request.
func TestClientDoesNotRetryNotFound(t *testing.T) {
	srv := httptest.NewServer(newRepo(t).Handler())
	defer srv.Close()
	reg := obsv.New()
	c, err := NewClient(srv.URL, withObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schema(context.Background(), "NoSuchFormat"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	snap := reg.Snapshot()
	if snap["discovery.fetches"] != 1 || snap["discovery.fetch_errors"] != 1 {
		t.Errorf("fetches, fetch_errors = %d, %d, want 1, 1",
			snap["discovery.fetches"], snap["discovery.fetch_errors"])
	}
}

// TestClientFlightEventsNameTheSchema: a fetch's flight event carries the
// schema name as its stream, so /debug/flight?stream=<schema> finds it.
func TestClientFlightEventsNameTheSchema(t *testing.T) {
	srv := httptest.NewServer(newRepo(t).Handler())
	defer srv.Close()
	c, err := NewClient(srv.URL, withObserver(obsv.New()))
	if err != nil {
		t.Fatal(err)
	}
	c.rec = trace.New(16, 0)
	if _, err := c.Schema(context.Background(), "Weather"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schema(context.Background(), "NoSuchFormat"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	for stream, want := range map[string]string{"Weather": "fetch ok", "NoSuchFormat": "fetch failed: "} {
		var got []trace.Event
		events, _ := c.rec.Events()
		for _, e := range events {
			if e.Stream == stream {
				got = append(got, e)
			}
		}
		if len(got) != 1 || got[0].Kind != "discovery" || !strings.HasPrefix(got[0].Detail, want) {
			t.Errorf("events for stream %q = %+v, want one discovery event %q", stream, got, want)
		}
	}
}

func TestClientRejectsBadBaseURL(t *testing.T) {
	if _, err := NewClient("ftp://nope"); err == nil {
		t.Error("ftp scheme accepted")
	}
	if _, err := NewClient("://"); err == nil {
		t.Error("malformed URL accepted")
	}
}

func TestClientRejectsInvalidDocument(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<not-a-schema/>")
	}))
	defer srv.Close()
	c, _ := NewClient(srv.URL)
	if _, err := c.Schema(context.Background(), "X"); err == nil {
		t.Error("invalid document accepted")
	}
}

func TestGenerator(t *testing.T) {
	repo := NewRepository()
	repo.SetGenerator("PerCaller", func(r *http.Request) (string, error) {
		// Scope the format by a request attribute (§4.4 format-scoping).
		if r.URL.Query().Get("full") == "1" {
			return docB, nil
		}
		return docWeather, nil
	})
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()

	get := func(q string) string {
		resp, err := http.Get(srv.URL + SchemaPathPrefix + "PerCaller" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if !strings.Contains(get("?full=1"), "ASDOffEvent") {
		t.Error("full variant wrong")
	}
	if !strings.Contains(get(""), "Weather") {
		t.Error("restricted variant wrong")
	}

	repo.SetGenerator("Broken", func(*http.Request) (string, error) {
		return "", errors.New("boom")
	})
	resp, err := http.Get(srv.URL + SchemaPathPrefix + "Broken")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("broken generator status = %d", resp.StatusCode)
	}

	repo.SetGenerator("Invalid", func(*http.Request) (string, error) {
		return "<junk/>", nil
	})
	resp, err = http.Get(srv.URL + SchemaPathPrefix + "Invalid")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("invalid generator status = %d", resp.StatusCode)
	}
}

func TestDirSource(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "Weather.xsd"), []byte(docWeather), 0o644); err != nil {
		t.Fatal(err)
	}
	src := DirSource{Dir: dir}
	s, err := src.Schema(context.Background(), "Weather")
	if err != nil {
		t.Fatal(err)
	}
	if s.Types[0].Name != "Weather" {
		t.Errorf("schema = %v", s.Types[0].Name)
	}
	if _, err := src.Schema(context.Background(), "Missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing err = %v", err)
	}
	for _, bad := range []string{"", "../etc/passwd", "a/b", `a\b`} {
		if _, err := src.Schema(context.Background(), bad); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
}

func TestStaticSource(t *testing.T) {
	src := StaticSource{"Weather": docWeather}
	if _, err := src.Schema(context.Background(), "Weather"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Schema(context.Background(), "X"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestResolverFallback(t *testing.T) {
	// Primary remote source is down; the compiled-in fallback must serve —
	// the degraded mode of §3.3.
	dead, err := NewClient("http://127.0.0.1:1",
		withHTTPClient(&http.Client{Timeout: 200 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	res := NewResolver(dead, StaticSource{"Weather": docWeather})
	s, err := res.Schema(context.Background(), "Weather")
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if s.Types[0].Name != "Weather" {
		t.Errorf("schema = %v", s.Types[0].Name)
	}

	// All sources failing joins the errors.
	res2 := NewResolver(dead, StaticSource{})
	if _, err := res2.Schema(context.Background(), "Weather"); err == nil {
		t.Error("want error when all sources fail")
	} else if !strings.Contains(err.Error(), "compiled-in") {
		t.Errorf("error should mention each source: %v", err)
	}

	if _, err := NewResolver().Schema(context.Background(), "X"); err == nil {
		t.Error("empty resolver: want error")
	}

	if !strings.HasPrefix(res.Describe(), "chain(") {
		t.Errorf("Describe = %q", res.Describe())
	}
}

func TestResolverPrefersPrimary(t *testing.T) {
	repo := newRepo(t)
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()
	c, _ := NewClient(srv.URL)
	stale := StaticSource{"Weather": docB} // wrong on purpose
	res := NewResolver(c, stale)
	s, err := res.Schema(context.Background(), "Weather")
	if err != nil {
		t.Fatal(err)
	}
	if s.Types[0].Name != "Weather" {
		t.Error("resolver did not prefer the primary source")
	}
}

func TestFetchURL(t *testing.T) {
	repo := newRepo(t)
	srv := httptest.NewServer(repo.Handler())
	defer srv.Close()
	s, err := FetchURL(context.Background(), nil, srv.URL+SchemaPathPrefix+"ASDOffEvent")
	if err != nil {
		t.Fatal(err)
	}
	if s.Types[0].Name != "ASDOffEvent" {
		t.Errorf("schema = %v", s.Types[0].Name)
	}
	if _, err := FetchURL(context.Background(), nil, srv.URL+"/nope"); err == nil {
		t.Error("404 accepted")
	}
	if _, err := FetchURL(context.Background(), nil, "http://127.0.0.1:1/x"); err == nil {
		t.Error("dead host accepted")
	}
}
