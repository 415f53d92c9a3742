// Package retry is a small context-aware retry engine for the transport
// layers: exponential backoff with deterministic jitter, per-attempt
// timeouts, and a Permanent escape hatch for errors no amount of retrying
// can fix.
//
// The paper's discovery and event-backbone designs both assume metadata and
// records travel over real networks ("a Uniform Resource Locator can be
// used instead" of compiled-in metadata, §3.3); this package is where the
// repo's transports acquire the corresponding tolerance for transient
// failure. Every attempt and every give-up is counted in the default obsv
// registry (retry.attempts, retry.retries, retry.giveups) so the cost of a
// flaky link shows up on /metrics.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"openmeta/internal/flight"
	"openmeta/internal/obsv"
)

// ErrExhausted reports that every attempt a Policy allows failed. Errors
// returned by Do wrap both ErrExhausted and the last attempt's error, so
// callers can branch on either.
var ErrExhausted = errors.New("retry: retries exhausted")

// Package-level instruments on the default registry, created at init so the
// retry.* metric names exist (zero-valued) in the registry from process
// start.
var (
	attemptsCounter = obsv.Default().Counter("retry.attempts")
	retriesCounter  = obsv.Default().Counter("retry.retries")
	giveupsCounter  = obsv.Default().Counter("retry.giveups")
	sleepNS         = obsv.Default().Histogram("retry.sleep_ns")
)

// Policy describes how Do retries an operation. The zero value is usable
// and means "four attempts, 50ms initial backoff doubling to a 5s cap, half
// a backoff of jitter"; set MaxAttempts to 1 to disable retries entirely.
type Policy struct {
	// MaxAttempts is the total number of attempts, including the first
	// (default 4; 1 disables retries; negative is treated as 1).
	MaxAttempts int
	// Initial is the backoff before the first retry (default 50ms).
	Initial time.Duration
	// Max caps the un-jittered backoff (default 5s).
	Max time.Duration
	// Multiplier grows the backoff between retries (default 2). For the
	// jittered schedule to stay monotone non-decreasing below the cap,
	// keep Multiplier >= 1+Jitter (the defaults satisfy this).
	Multiplier float64
	// Jitter is the fraction of the base backoff added as randomness: each
	// sleep is drawn uniformly from [base, base*(1+Jitter)] (default 0.5).
	// Zero Jitter with a non-zero Multiplier still jitters by the default;
	// set Jitter negative for a fully deterministic schedule.
	Jitter float64
	// AttemptTimeout bounds each attempt with a child context deadline
	// (0 = attempts share the caller's context deadline only).
	AttemptTimeout time.Duration
	// Seed makes the jittered schedule deterministic (tests). Zero seeds
	// from the global random source.
	Seed int64
	// Notify, when non-nil, observes each scheduled retry: the error that
	// caused it and the sleep about to be taken.
	Notify func(err error, sleep time.Duration)
}

// withDefaults returns p with zero fields replaced by the documented
// defaults.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Initial <= 0 {
		p.Initial = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	switch {
	case p.Jitter < 0:
		p.Jitter = 0
	case p.Jitter == 0:
		p.Jitter = 0.5
	}
	return p
}

// Backoff returns the un-jittered base backoff before retry number retry
// (0-based): min(Initial * Multiplier^retry, Max). The base schedule is
// monotone non-decreasing and saturates at Max.
func (p Policy) Backoff(retry int) time.Duration {
	p = p.withDefaults()
	if retry < 0 {
		retry = 0
	}
	b := float64(p.Initial) * math.Pow(p.Multiplier, float64(retry))
	if b > float64(p.Max) || math.IsInf(b, 1) || math.IsNaN(b) {
		return p.Max
	}
	return time.Duration(b)
}

// Schedule returns the first n jittered sleeps Do would take, derived
// deterministically from seed. Tests use it to assert schedule properties
// without sleeping.
func (p Policy) Schedule(seed int64, n int) []time.Duration {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = p.jittered(i, rng)
	}
	return out
}

// jittered draws the sleep before retry i from [base, base*(1+Jitter)].
func (p Policy) jittered(retry int, rng *rand.Rand) time.Duration {
	base := p.Backoff(retry)
	if p.Jitter <= 0 {
		return base
	}
	span := float64(base) * p.Jitter
	return base + time.Duration(rng.Float64()*span)
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns it unwrapped-able
// via errors.Is/As as usual. A nil err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs op until it succeeds, is marked Permanent, exhausts the policy's
// attempts, or ctx is done. Each attempt receives a child context
// carrying the policy's per-attempt timeout. The returned error wraps
// ErrExhausted (plus the final attempt's error) on give-up, or the
// permanent/context error directly.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	seed := p.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	rng := rand.New(rand.NewSource(seed))
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return ctxError(err, lastErr)
		}
		attemptsCounter.Add(1)
		lastErr = runAttempt(ctx, p.AttemptTimeout, op)
		if lastErr == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(lastErr, &pe) {
			return pe.err
		}
		if errors.Is(lastErr, context.Canceled) && ctx.Err() != nil {
			return ctxError(ctx.Err(), lastErr)
		}
		if attempt+1 >= p.MaxAttempts {
			giveupsCounter.Add(1)
			flight.Default().Record(flight.KindRetryGiveUp, 0, "", 0, int64(attempt+1), lastErr.Error())
			return fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempt+1, lastErr)
		}
		sleep := p.jittered(attempt, rng)
		if p.Notify != nil {
			p.Notify(lastErr, sleep)
		}
		retriesCounter.Add(1)
		sleepNS.Observe(sleep.Nanoseconds())
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctxError(ctx.Err(), lastErr)
		case <-t.C:
		}
	}
}

// runAttempt invokes op under the per-attempt timeout, if any.
func runAttempt(ctx context.Context, timeout time.Duration, op func(ctx context.Context) error) error {
	if timeout <= 0 {
		return op(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return op(actx)
}

// ctxError folds the context error together with the last attempt error so
// neither diagnostic is lost.
func ctxError(ctxErr, lastErr error) error {
	if lastErr == nil {
		return ctxErr
	}
	return fmt.Errorf("%w (last attempt: %w)", ctxErr, lastErr)
}
