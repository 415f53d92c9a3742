package discovery

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"openmeta/internal/obsv"
	"openmeta/internal/trace"
	"openmeta/internal/xmlschema"
)

// clientMetrics bundles the discovery client's instruments.
type clientMetrics struct {
	fetches       *obsv.Counter   // HTTP requests issued
	cacheHits     *obsv.Counter   // served from cache within the TTL
	revalidations *obsv.Counter   // 304 Not Modified responses
	fetchErrors   *obsv.Counter   // failed fetches (network or HTTP status)
	fetchNS       *obsv.Histogram // HTTP round-trip latency
}

func newClientMetrics(r *obsv.Registry) clientMetrics {
	s := r.Scope("discovery")
	return clientMetrics{
		fetches:       s.Counter("fetches"),
		cacheHits:     s.Counter("cache_hits"),
		revalidations: s.Counter("revalidations"),
		fetchErrors:   s.Counter("fetch_errors"),
		fetchNS:       s.Histogram("fetch_ns"),
	}
}

// Package-level defaults created at init so the discovery.* metric names are
// present (zero-valued) from process start.
var (
	defaultClientMetrics = newClientMetrics(obsv.Default())

	watcherRefires = obsv.Default().Counter("discovery.watch.refires")
	watcherDropped = obsv.Default().Counter("discovery.watch.dropped")
)

// Source is one way of discovering the schema document for a format name.
// The paper's point about orthogonality is embodied here: any Source can
// feed the same binding pipeline.
type Source interface {
	// Schema retrieves and parses the schema document for name.
	Schema(ctx context.Context, name string) (*xmlschema.Schema, error)
	// Describe names the source for diagnostics ("http://host/schemas/",
	// "dir /etc/schemas", "compiled-in").
	Describe() string
}

// Client fetches schema documents from a remote repository over HTTP,
// caching them with ETag revalidation so repeated discovery of an unchanged
// format costs one conditional request (or nothing, within the TTL).
type Client struct {
	base *url.URL
	http *http.Client
	ttl  time.Duration
	now  func() time.Time
	obs  clientMetrics
	rec  *trace.Recorder

	mu    sync.Mutex
	cache map[string]*clientEntry
}

type clientEntry struct {
	schema  *xmlschema.Schema
	etag    string
	fetched time.Time
}

var _ Source = (*Client)(nil)

// ClientOption configures a Client.
type ClientOption func(*Client)

// withHTTPClient substitutes the HTTP client (tests, timeouts).
func withHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// withTTL sets how long a fetched document is reused without revalidation.
// Zero revalidates on every Fetch.
func withTTL(ttl time.Duration) ClientOption {
	return func(c *Client) { c.ttl = ttl }
}

// withClock substitutes the time source in tests.
func withClock(now func() time.Time) ClientOption {
	return func(c *Client) { c.now = now }
}

// withObserver directs the client's metrics (fetches, cache hits,
// revalidations, fetch latency) into r instead of the default registry.
func withObserver(r *obsv.Registry) ClientOption {
	return func(c *Client) { c.obs = newClientMetrics(r) }
}

// NewClient returns a client for the repository rooted at baseURL (e.g.
// "http://metadata.example.com"; the /schemas/ prefix is appended).
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("discovery: base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("discovery: base URL %q: unsupported scheme", baseURL)
	}
	c := &Client{
		base:  u,
		http:  &http.Client{},
		ttl:   time.Minute,
		now:   time.Now,
		obs:   defaultClientMetrics,
		rec:   trace.Default(),
		cache: make(map[string]*clientEntry),
	}
	for _, opt := range opts {
		opt(c)
	}
	// Bound each request (10s unless a substituted client sets its own)
	// without mutating a caller-owned client.
	if c.http.Timeout == 0 {
		clone := *c.http
		clone.Timeout = 10 * time.Second
		c.http = &clone
	}
	return c, nil
}

// Describe implements Source.
func (c *Client) Describe() string { return c.base.String() + SchemaPathPrefix }

// Schema implements Source: a cache hit within the TTL, or else one
// conditional GET. A client that cannot reach the repository fails; the
// §3.3 fallback to compiled-in metadata is a Resolver whose chain ends in a
// StaticSource.
func (c *Client) Schema(ctx context.Context, name string) (*xmlschema.Schema, error) {
	c.mu.Lock()
	entry := c.cache[name]
	if entry != nil && c.now().Sub(entry.fetched) < c.ttl {
		s := entry.schema
		c.mu.Unlock()
		c.obs.cacheHits.Add(1)
		return s, nil
	}
	var etag string
	if entry != nil {
		etag = entry.etag
	}
	c.mu.Unlock()

	s, err := c.fetch(ctx, name, etag)
	if err != nil {
		c.rec.Record(trace.KindDiscovery, 0, name, 0, 0, "fetch failed: "+err.Error())
		return nil, err
	}
	c.rec.Record(trace.KindDiscovery, 0, name, 0, 0, "fetch ok")
	return s, nil
}

// fetch performs one conditional GET for name, revalidating etag when the
// cache holds an entry.
func (c *Client) fetch(ctx context.Context, name, etag string) (*xmlschema.Schema, error) {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + SchemaPathPrefix + url.PathEscape(name)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("discovery: %w", err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	c.obs.fetches.Add(1)
	start := c.now()
	resp, err := c.http.Do(req)
	c.obs.fetchNS.Observe(c.now().Sub(start).Nanoseconds())
	if err != nil {
		c.obs.fetchErrors.Add(1)
		return nil, fmt.Errorf("discovery: fetch %q: %w", name, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()

	switch resp.StatusCode {
	case http.StatusNotModified:
		c.obs.revalidations.Add(1)
		c.mu.Lock()
		defer c.mu.Unlock()
		if entry := c.cache[name]; entry != nil {
			entry.fetched = c.now()
			return entry.schema, nil
		}
		return nil, fmt.Errorf("discovery: fetch %q: 304 without cache entry", name)
	case http.StatusNotFound:
		c.obs.fetchErrors.Add(1)
		return nil, fmt.Errorf("%w: %q at %s", ErrNotFound, name, c.Describe())
	case http.StatusOK:
		// fall through
	default:
		c.obs.fetchErrors.Add(1)
		return nil, fmt.Errorf("discovery: fetch %q: HTTP %d", name, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("discovery: fetch %q: %w", name, err)
	}
	s, err := xmlschema.ParseString(string(body))
	if err != nil {
		return nil, fmt.Errorf("discovery: fetch %q: %w", name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache[name] = &clientEntry{
		schema:  s,
		etag:    resp.Header.Get("ETag"),
		fetched: c.now(),
	}
	return s, nil
}

// Publish validates a schema document locally and uploads it to the
// repository (PUT). This is how a newly created stream makes its metadata
// available (§4.4); the repository must have writes enabled.
func (c *Client) Publish(ctx context.Context, name, doc string) error {
	if _, err := xmlschema.ParseString(doc); err != nil {
		return fmt.Errorf("discovery: publish %q: %w", name, err)
	}
	resp, err := c.write(ctx, http.MethodPut, name, strings.NewReader(doc))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusNoContent, http.StatusOK:
		c.Invalidate(name)
		return nil
	case http.StatusForbidden:
		return fmt.Errorf("discovery: publish %q: repository is read-only", name)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("discovery: publish %q: HTTP %d: %s", name, resp.StatusCode,
			strings.TrimSpace(string(msg)))
	}
}

// Unpublish removes a schema document from the repository (DELETE).
func (c *Client) Unpublish(ctx context.Context, name string) error {
	resp, err := c.write(ctx, http.MethodDelete, name, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("discovery: unpublish %q: HTTP %d", name, resp.StatusCode)
	}
	c.Invalidate(name)
	return nil
}

func (c *Client) write(ctx context.Context, method, name string, body io.Reader) (*http.Response, error) {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + SchemaPathPrefix + url.PathEscape(name)
	req, err := http.NewRequestWithContext(ctx, method, u.String(), body)
	if err != nil {
		return nil, fmt.Errorf("discovery: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("discovery: %s %q: %w", method, name, err)
	}
	return resp, nil
}

// ProbeReachable returns a readiness probe (shaped for obsv.RegisterProbe)
// reporting whether the repository answers HTTP at all. Any response — even
// an error status — proves reachability; only transport failures fail the
// probe.
func (c *Client) ProbeReachable() func() error {
	return func() error {
		u := *c.base
		u.Path = strings.TrimSuffix(u.Path, "/") + SchemaPathPrefix
		req, err := http.NewRequest(http.MethodGet, u.String(), nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return fmt.Errorf("repository unreachable: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return nil
	}
}

// Invalidate drops the cached entry for name (all entries when name is "").
func (c *Client) Invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "" {
		c.cache = make(map[string]*clientEntry)
		return
	}
	delete(c.cache, name)
}

// FetchURL retrieves and parses a schema document from an arbitrary URL —
// the mode the paper sketches where "a Uniform Resource Locator can be used
// instead" of a compiled-in definition.
func FetchURL(ctx context.Context, h *http.Client, rawURL string) (*xmlschema.Schema, error) {
	if h == nil {
		h = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, fmt.Errorf("discovery: %w", err)
	}
	resp, err := h.Do(req)
	if err != nil {
		return nil, fmt.Errorf("discovery: fetch %s: %w", rawURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("discovery: fetch %s: HTTP %d", rawURL, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("discovery: fetch %s: %w", rawURL, err)
	}
	return xmlschema.ParseString(string(body))
}

// DirSource serves schemas from a local directory of <name>.xsd files — the
// discovery mode of the paper's prototype ("XML documents are processed by
// specifying their location in the local file system").
type DirSource struct {
	// Dir is the directory holding <name>.xsd documents.
	Dir string
}

var _ Source = DirSource{}

// Describe implements Source.
func (d DirSource) Describe() string { return "dir " + d.Dir }

// Schema implements Source.
func (d DirSource) Schema(_ context.Context, name string) (*xmlschema.Schema, error) {
	if strings.ContainsAny(name, `/\`) || name == "" || strings.Contains(name, "..") {
		return nil, fmt.Errorf("discovery: invalid schema name %q", name)
	}
	path := filepath.Join(d.Dir, name+".xsd")
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q in %s", ErrNotFound, name, d.Dir)
		}
		return nil, fmt.Errorf("discovery: %w", err)
	}
	return xmlschema.ParseString(string(raw))
}

// StaticSource serves compiled-in schema documents — the degraded-mode
// fallback of §3.3 ("compiled-in information as a fault-tolerant discovery
// method").
type StaticSource map[string]string

var _ Source = StaticSource{}

// Describe implements Source.
func (s StaticSource) Describe() string { return "compiled-in" }

// Schema implements Source.
func (s StaticSource) Schema(_ context.Context, name string) (*xmlschema.Schema, error) {
	doc, ok := s[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (compiled-in)", ErrNotFound, name)
	}
	return xmlschema.ParseString(doc)
}

// Resolver tries a chain of sources in order, so remote discovery can fall
// back to local files and finally to compiled-in metadata.
type Resolver struct {
	sources []Source
}

// NewResolver builds a resolver over the given sources, primary first.
func NewResolver(sources ...Source) *Resolver {
	return &Resolver{sources: sources}
}

// Schema returns the first source's schema for name, falling through on any
// error; if all fail, the errors are joined.
func (r *Resolver) Schema(ctx context.Context, name string) (*xmlschema.Schema, error) {
	if len(r.sources) == 0 {
		return nil, errors.New("discovery: resolver has no sources")
	}
	var errs []error
	for _, src := range r.sources {
		s, err := src.Schema(ctx, name)
		if err == nil {
			return s, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", src.Describe(), err))
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("discovery: all sources failed for %q: %w", name, errors.Join(errs...))
}

// Describe implements Source, so resolvers nest.
func (r *Resolver) Describe() string {
	parts := make([]string, len(r.sources))
	for i, s := range r.sources {
		parts[i] = s.Describe()
	}
	return "chain(" + strings.Join(parts, " -> ") + ")"
}

var _ Source = (*Resolver)(nil)
