package openmeta

import (
	"openmeta/internal/dcg"
	"openmeta/internal/eventbus"
	"openmeta/internal/pbio"
)

// Option configures a Context built with New. The zero configuration lays
// formats out for the native architecture.
type Option func(*contextConfig)

type contextConfig struct {
	arch *Arch
}

// WithArch lays formats out for arch instead of the native architecture —
// how tests and tools simulate heterogeneous peers.
func WithArch(arch *Arch) Option {
	return func(c *contextConfig) { c.arch = arch }
}

// New creates a format catalog. With no options it lays formats out for the
// native architecture:
//
//	ctx, err := openmeta.New()
//	ctx, err := openmeta.New(openmeta.WithArch(openmeta.ArchSparc))
func New(opts ...Option) (*Context, error) {
	cfg := contextConfig{arch: NativeArch}
	for _, opt := range opts {
		opt(&cfg)
	}
	return pbio.NewContext(cfg.arch)
}

type (
	// Broker is the event backbone.
	Broker = eventbus.Broker
	// PlanCache memoizes conversion plans per format pair.
	PlanCache = dcg.Cache
)

// ListenBroker starts an event backbone broker on addr ("host:0" picks a
// free port).
func ListenBroker(addr string) (*Broker, error) { return eventbus.Listen(addr) }

// NewPlanCache returns a memoizing conversion-plan cache.
func NewPlanCache() *PlanCache { return dcg.NewCache() }
