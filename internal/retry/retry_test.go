package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"openmeta/internal/obsv"
)

// fastPolicy keeps test sleeps negligible.
func fastPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		Initial:     time.Microsecond,
		Max:         50 * time.Microsecond,
		Seed:        1,
	}
}

func TestDoSucceedsFirstTry(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("Do = %v after %d calls, want nil after 1", err, calls)
	}
}

// A zero-value Policy has no Seed, so Do must seed its own jitter source;
// this used to nil-dereference the rng on the first retry sleep.
func TestDoZeroPolicyRetries(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Initial: time.Microsecond, Max: 10 * time.Microsecond}, func(context.Context) error {
		calls++
		if calls < 2 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("Do = %v after %d calls, want nil after 2", err, calls)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	before := obsv.Default().Snapshot()
	calls := 0
	base := errors.New("still down")
	err := Do(context.Background(), fastPolicy(), func(context.Context) error {
		calls++
		return base
	})
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, base) {
		t.Fatalf("err = %v, want wraps ErrExhausted and the last error", err)
	}
	d := obsv.Delta(before, obsv.Default().Snapshot())
	if d["retry.attempts"] < 4 {
		t.Errorf("retry.attempts delta = %d, want >= 4", d["retry.attempts"])
	}
	if d["retry.giveups"] < 1 {
		t.Errorf("retry.giveups delta = %d, want >= 1", d["retry.giveups"])
	}
}

func TestDoHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, fastPolicy(), func(context.Context) error {
		calls++
		cancel()
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry after cancel)", calls)
	}
}

// TestBackoffScheduleMonotoneProperty is the ISSUE's property test: for any
// seed, the jittered schedule is monotone non-decreasing up to the point
// where the un-jittered base reaches the cap.
func TestBackoffScheduleMonotoneProperty(t *testing.T) {
	policies := []Policy{
		{}, // all defaults
		{Initial: time.Millisecond, Max: time.Second},
		{Initial: 10 * time.Millisecond, Max: 2 * time.Second},
		{Initial: time.Millisecond, Max: 100 * time.Millisecond},
	}
	seedRng := rand.New(rand.NewSource(42))
	for pi, p := range policies {
		norm := p.withDefaults()
		// First retry index whose base has saturated at the cap.
		capAt := 0
		for norm.Backoff(capAt) < norm.Max {
			capAt++
		}
		for trial := 0; trial < 200; trial++ {
			seed := seedRng.Int63()
			if seed == 0 {
				seed = 1
			}
			sched := p.Schedule(seed, capAt+4)
			for i := 1; i < capAt && i < len(sched); i++ {
				if sched[i] < sched[i-1] {
					t.Fatalf("policy %d seed %d: schedule decreases below cap at %d: %v < %v",
						pi, seed, i, sched[i], sched[i-1])
				}
			}
			// Jittered sleeps never exceed cap*(1+jitter).
			limit := time.Duration(float64(norm.Max) * (1 + jitter))
			for i, s := range sched {
				if s > limit {
					t.Fatalf("policy %d seed %d: sleep %d = %v exceeds jittered cap %v", pi, seed, i, s, limit)
				}
			}
		}
	}
}

// TestScheduleDeterministic: same seed, same schedule; different seeds,
// (almost surely) different schedules.
func TestScheduleDeterministic(t *testing.T) {
	p := Policy{}
	a := p.Schedule(7, 10)
	b := p.Schedule(7, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := p.Schedule(8, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestBackoffSaturatesAtMax(t *testing.T) {
	p := Policy{Initial: time.Millisecond, Max: 100 * time.Millisecond}
	for i := 0; i < 64; i++ {
		if b := p.Backoff(i); b > 100*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v exceeds cap", i, b)
		}
	}
	if p.Backoff(1000) != 100*time.Millisecond {
		t.Fatalf("Backoff(1000) = %v, want the cap (overflow must clamp)", p.Backoff(1000))
	}
}

func ExampleDo() {
	calls := 0
	err := Do(context.Background(), Policy{MaxAttempts: 3, Initial: time.Microsecond, Seed: 1},
		func(context.Context) error {
			calls++
			if calls < 2 {
				return errors.New("transient")
			}
			return nil
		})
	fmt.Println(err, calls)
	// Output: <nil> 2
}
