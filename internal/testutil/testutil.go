// Package testutil holds shared test synchronization helpers: polling with a
// deadline instead of fixed time.Sleep calls, so e2e tests wait exactly as
// long as the condition needs — no longer (slow suites) and no shorter
// (flakes under -race or loaded CI hardware) — and a goroutine-leak check
// built on the same polling.
package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// pollInterval is the initial backoff between condition checks; it doubles
// up to pollMax so hot conditions resolve in microseconds while slow ones
// don't spin a CPU.
const (
	pollInterval = time.Millisecond
	pollMax      = 50 * time.Millisecond
)

// leakWait is how long NoGoroutineLeak gives goroutines to wind down.
var leakWait = 3 * time.Second

// WaitFor polls cond until it holds or timeout passes, then fails the test
// fatally, naming what it was waiting for.
func WaitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	if !Poll(timeout, cond) {
		t.Fatalf("timed out after %v waiting for %s", timeout, what)
	}
}

// Poll repeatedly evaluates cond (with exponential backoff between checks)
// until it returns true or timeout passes. It reports whether cond held, for
// call sites that want a non-fatal check or a custom failure message. cond
// runs at least once even with a zero timeout.
func Poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	interval := pollInterval
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(interval)
		if interval < pollMax {
			interval *= 2
		}
	}
}

// eventually polls cond and calls fail with a message when it never held —
// the non-fatal sibling of WaitFor for use with t.Errorf-style reporting.
func eventually(timeout time.Duration, cond func() bool, fail func(msg string)) {
	if !Poll(timeout, cond) {
		fail("condition did not hold within " + timeout.String())
	}
}

// goroutines returns the stack of every live goroutine by its ID, read off
// the "goroutine N [state]:" headers of a full stack dump.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) { // truncated: the dump needs a larger buffer
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := make(map[string]string)
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(stack, "goroutine "), " "); ok {
			out[id] = stack
		}
	}
	return out
}

// NoGoroutineLeak notes which goroutines are running and, once the test and
// every cleanup registered after this call have finished, waits for every
// goroutine started since to end — failing with the stacks of those still
// running. Goroutines are told apart by ID, so one from before the call that
// happens to end meanwhile cannot hide a leak the way it did when only their
// number was compared. Call it first, before starting the brokers and clients
// whose Close it is checking.
func NoGoroutineLeak(t testing.TB) {
	t.Helper()
	before := goroutines()
	t.Cleanup(func() {
		var leaked []string
		if Poll(leakWait, func() bool {
			leaked = leaked[:0]
			for id, stack := range goroutines() {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			return len(leaked) == 0
		}) {
			return
		}
		t.Errorf("%d goroutines started during the test are running after teardown:\n%s",
			len(leaked), strings.Join(leaked, "\n\n"))
	})
}
