// Package retry is the event backbone's dial and reconnect loop: a
// context-aware retry with exponential backoff and deterministic jitter.
//
// The paper's event backbone assumes records travel over real networks;
// eventbus's dial and WithReconnect redial are where the repo's transports
// acquire the corresponding tolerance for transient failure. Every attempt
// and every give-up is counted in the default obsv registry (retry.attempts,
// retry.retries, retry.giveups) so the cost of a flaky link shows up on
// /metrics.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

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

// jitter is the fraction of the base backoff added as randomness: each sleep
// is drawn uniformly from [base, base*(1+jitter)]. The base doubles per
// retry, and 2 >= 1+jitter keeps the jittered schedule monotone
// non-decreasing below the cap.
const jitter = 0.5

// Policy describes how Do retries an operation. The zero value is usable
// and means "four attempts, 50ms initial backoff doubling to a 5s cap, half
// a backoff of jitter"; set MaxAttempts to 1 to disable retries entirely.
// Attempts share the caller's context deadline.
type Policy struct {
	// MaxAttempts is the total number of attempts, including the first
	// (default 4; 1 disables retries; negative is treated as 1).
	MaxAttempts int
	// Initial is the backoff before the first retry (default 50ms).
	Initial time.Duration
	// Max caps the un-jittered backoff (default 5s).
	Max time.Duration
	// Seed makes the jittered schedule deterministic (tests). Zero seeds
	// from the global random source.
	Seed int64
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
	return p
}

// Backoff returns the un-jittered base backoff before retry number retry
// (0-based): min(Initial * 2^retry, Max). The base schedule is monotone
// non-decreasing and saturates at Max.
func (p Policy) Backoff(retry int) time.Duration {
	p = p.withDefaults()
	b := math.Ldexp(float64(p.Initial), max(retry, 0))
	if b > float64(p.Max) {
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

// jittered draws the sleep before retry i from [base, base*(1+jitter)].
func (p Policy) jittered(retry int, rng *rand.Rand) time.Duration {
	base := p.Backoff(retry)
	return base + time.Duration(rng.Float64()*float64(base)*jitter)
}

// Do runs op until it succeeds, exhausts the policy's attempts, or ctx is
// done. The returned error wraps ErrExhausted (plus the final attempt's
// error) on give-up, or the context error.
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
		lastErr = op(ctx)
		if lastErr == nil {
			return nil
		}
		if errors.Is(lastErr, context.Canceled) && ctx.Err() != nil {
			return ctxError(ctx.Err(), lastErr)
		}
		if attempt+1 >= p.MaxAttempts {
			giveupsCounter.Add(1)
			return fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempt+1, lastErr)
		}
		sleep := p.jittered(attempt, rng)
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

// ctxError folds the context error together with the last attempt error so
// neither diagnostic is lost.
func ctxError(ctxErr, lastErr error) error {
	if lastErr == nil {
		return ctxErr
	}
	return fmt.Errorf("%w (last attempt: %w)", ctxErr, lastErr)
}
