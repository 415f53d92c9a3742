package openmeta

import (
	"log/slog"
	"net"
	"time"

	"openmeta/internal/dcg"
	"openmeta/internal/discovery"
	"openmeta/internal/eventbus"
	"openmeta/internal/pbio"
	"openmeta/internal/retry"
)

// Option configures a Context built with New. The zero configuration lays
// formats out for the native architecture and reports metrics to the
// default observer (see Stats).
type Option func(*contextConfig)

type contextConfig struct {
	arch *Arch
	obs  *Observer
}

// WithArch lays formats out for arch instead of the native architecture —
// how tests and tools simulate heterogeneous peers.
func WithArch(arch *Arch) Option {
	return func(c *contextConfig) { c.arch = arch }
}

// WithObserver directs the context's metrics (format registrations and
// adoptions, encode/decode calls and bytes) into obs instead of the
// process-wide default registry snapshotted by Stats.
func WithObserver(obs *Observer) Option {
	return func(c *contextConfig) { c.obs = obs }
}

// New creates a format catalog. With no options it lays formats out for the
// native architecture:
//
//	ctx, err := openmeta.New()
//	ctx, err := openmeta.New(openmeta.WithArch(openmeta.ArchSparc64))
func New(opts ...Option) (*Context, error) {
	cfg := contextConfig{arch: NativeArch}
	for _, opt := range opts {
		opt(&cfg)
	}
	var popts []pbio.ContextOption
	if cfg.obs != nil {
		popts = append(popts, pbio.WithObserver(cfg.obs))
	}
	return pbio.NewContext(cfg.arch, popts...)
}

// BrokerOption configures a Broker (see NewBroker and ListenBroker).
type BrokerOption = eventbus.BrokerOption

// WithBrokerSlog directs broker diagnostics to l (default slog.Default())
// as structured records with component, conn and stream attributes.
func WithBrokerSlog(l *slog.Logger) BrokerOption { return eventbus.WithSlog(l) }

// WithQueueDepth bounds each subscriber's outbound frame queue (default
// 256). A slow subscriber whose queue fills loses event frames rather than
// stalling the bus.
func WithQueueDepth(n int) BrokerOption { return eventbus.WithQueueDepth(n) }

// WithBrokerObserver directs the broker's metrics (published, delivered,
// dropped, per-stream counters, queue depth) into obs instead of the
// default registry.
func WithBrokerObserver(obs *Observer) BrokerOption { return eventbus.WithObserver(obs) }

// WithPlanCache substitutes the conversion-plan cache the broker uses for
// format scoping — share one across brokers or bound it with
// NewPlanCache(WithPlanCacheLimit(n)).
func WithPlanCache(c *PlanCache) BrokerOption { return eventbus.WithPlanCache(c) }

// WithWriteDeadline bounds each subscriber-connection flush (default 2s). A
// peer that stops draining its socket for longer is treated as slow and
// disconnected rather than allowed to stall the broker's write loop.
func WithWriteDeadline(d time.Duration) BrokerOption { return eventbus.WithWriteDeadline(d) }

// RetryPolicy shapes retry behaviour across the robustness layer:
// MaxAttempts, Initial/Max backoff, Multiplier, Jitter, per-attempt
// timeouts and an optional shared budget. The zero value uses sensible
// defaults (four attempts, 50ms initial backoff doubling to a 5s cap with
// 50% jitter).
type RetryPolicy = retry.Policy

// RetryBudget caps retry volume across many callers sharing one budget, so
// a broad outage cannot amplify into a retry storm.
type RetryBudget = retry.Budget

// NewRetryBudget returns a budget allowing burst retries immediately and
// perSecond sustained.
func NewRetryBudget(burst int, perSecond float64) *RetryBudget {
	return retry.NewBudget(burst, perSecond)
}

// BusClientOption configures publishers and subscribers dialed with
// DialPublisher and DialSubscriber.
type BusClientOption = eventbus.ClientOption

// WithBusReconnect makes a publisher or subscriber survive broken broker
// connections: it redials under p, re-announces streams or re-subscribes
// (field scopes intact), and re-sends format metadata on the fresh
// connection.
func WithBusReconnect(p RetryPolicy) BusClientOption { return eventbus.WithReconnect(p) }

// WithBusDialTimeout bounds each broker dial attempt (default 10s).
func WithBusDialTimeout(d time.Duration) BusClientOption { return eventbus.WithDialTimeout(d) }

// DiscoveryClientOption configures clients built with NewDiscoveryClient.
type DiscoveryClientOption = discovery.ClientOption

// WithDiscoveryTimeout bounds each schema fetch (default 10s).
func WithDiscoveryTimeout(d time.Duration) DiscoveryClientOption {
	return discovery.WithTimeout(d)
}

// WithDiscoveryRetry retries failed schema fetches (transport errors and
// 5xx responses; 404s and malformed schemas are permanent) under p.
func WithDiscoveryRetry(p RetryPolicy) DiscoveryClientOption { return discovery.WithRetry(p) }

// WithDiscoveryStaleServe lets the client fall back to an expired cached
// schema for up to max past its TTL when every fetch attempt fails,
// counting each degraded answer in discovery.stale_served. Pass a negative
// max for an unlimited window. Absence (ErrSchemaNotFound) is never masked
// with stale data.
func WithDiscoveryStaleServe(max time.Duration) DiscoveryClientOption {
	return discovery.WithStaleServe(max)
}

// WithDiscoveryTTL sets how long fetched schemas are cached (default 5m).
func WithDiscoveryTTL(ttl time.Duration) DiscoveryClientOption { return discovery.WithTTL(ttl) }

// ListenBroker starts an event backbone broker on addr ("host:0" picks a
// free port).
func ListenBroker(addr string, opts ...BrokerOption) (*Broker, error) {
	return eventbus.Listen(addr, opts...)
}

// NewBroker starts a broker on an existing listener.
func NewBroker(ln net.Listener, opts ...BrokerOption) *Broker {
	return eventbus.NewBroker(ln, opts...)
}

// PlanCacheOption configures a PlanCache built with NewPlanCache.
type PlanCacheOption = dcg.CacheOption

// WithPlanCacheLimit bounds the cache to n memoized plans (0 = unbounded);
// the oldest format pairing is evicted when the bound is exceeded.
func WithPlanCacheLimit(n int) PlanCacheOption { return dcg.WithMaxEntries(n) }

// WithPlanCacheObserver directs the cache's hit/miss/eviction counters and
// compile-time histogram into obs instead of the default registry.
func WithPlanCacheObserver(obs *Observer) PlanCacheOption { return dcg.WithObserver(obs) }

// NewPlanCache returns a memoizing conversion-plan cache.
func NewPlanCache(opts ...PlanCacheOption) *PlanCache { return dcg.NewCache(opts...) }
