package openmeta

import (
	"testing"
	"time"

	"openmeta/internal/eventbus"
)

// The end-to-end tests of both test packages read a subscriber's events
// through ReceiveEvents, so that a lost record fails a test instead of
// hanging it.

// receiveDeadline bounds how long ReceiveEvents waits for a subscriber's
// events.
const receiveDeadline = 10 * time.Second

// ReceiveEvents returns the next n events of sub. Subscribe returns before
// the broker routes to the subscription, so publish, if not nil, is called at
// once and then every 10 ms until all n have arrived. If they have not within
// receiveDeadline, ReceiveEvents closes sub, which ends its Next, and fails
// the test, reporting how many arrived.
func ReceiveEvents(t *testing.T, sub *Subscriber, n int, publish func()) []eventbus.Event {
	t.Helper()
	type result struct {
		ev  eventbus.Event
		err error
	}
	results := make(chan result, n)
	go func() {
		for i := 0; i < n; i++ {
			ev, err := sub.Next()
			results <- result{ev, err}
			if err != nil {
				return
			}
		}
	}()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(receiveDeadline)
	if publish == nil {
		publish = func() {}
	}
	publish()
	var got []eventbus.Event
	for len(got) < n {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("%d of %d events received, then: %v", len(got), n, r.err)
			}
			got = append(got, r.ev)
		case <-tick.C:
			publish()
		case <-deadline:
			sub.Close()
			t.Fatalf("%d of %d events received within %v", len(got), n, receiveDeadline)
		}
	}
	return got
}
