package trace

import "context"

type ctxKey struct{}

// newContext returns a context carrying the span handle, for layers (like
// discovery) whose APIs already thread a context.Context.
func newContext(ctx context.Context, c Ctx) context.Context {
	if !c.Sampled() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the span handle carried by ctx, or the zero (unsampled)
// Ctx when none is present.
func FromContext(ctx context.Context) Ctx {
	c, _ := ctx.Value(ctxKey{}).(Ctx)
	return c
}
