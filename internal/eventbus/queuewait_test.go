package eventbus

import (
	"net"
	"sort"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
	"openmeta/internal/trace"
)

// TestQueueWaitObservability proves the writeLoop's enqueue→wire timing
// lands in the broker-wide queue_wait_ns histogram and in a broker.queue
// span under the publish's trace.
func TestQueueWaitObservability(t *testing.T) {
	tr := trace.New(0, 1024)
	tr.SetSampling(1)
	reg := obsv.New()

	b, err := Listen("127.0.0.1:0", withSlog(quietLogger), WithRecorder(tr), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	sub, err := DialSubscriber(b.Addr().String(), subCtx(t), WithClientRecorder(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	if err := sub.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	pub, err := DialPublisher(b.Addr().String(), WithClientRecorder(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })

	f := flightFormat(t, machine.Sparc)
	rec := pbio.Record{"cntrID": "ZTL", "fltNum": 7, "eta": []uint64{1, 2}}
	if err := pub.PublishRecord("flights", f, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(); err != nil {
		t.Fatal(err)
	}

	// The retroactive queue span: same trace as the route span, parented
	// under it, with the enqueue as its start.
	spans := spansByName(t, tr, "broker.route", "broker.queue")
	route, queue := spans["broker.route"], spans["broker.queue"]
	if queue.Trace != route.Trace {
		t.Fatalf("broker.queue trace %s != broker.route trace %s", queue.Trace, route.Trace)
	}
	if queue.Parent != route.ID {
		t.Fatalf("broker.queue parent %s, want the route span %s", queue.Parent, route.ID)
	}
	if queue.Detail != "flights" {
		t.Fatalf("broker.queue detail = %q, want the stream name", queue.Detail)
	}
	if queue.Dur < 0 {
		t.Fatalf("broker.queue dur = %v", queue.Dur)
	}

	// Metrics: the event frame's dequeue is observed in the broker-wide
	// histogram (format frames count too, so >= 1 is the floor).
	testutil.WaitFor(t, 5*time.Second, "a queue-wait observation", func() bool {
		return reg.Snapshot()["eventbus.queue_wait_ns.count"] >= 1
	})
}

// TestConnectionChurnAddsNoSeries: a broker that accepted and closed 2,000
// connections exposes the same series as before them, so connection churn
// cannot grow /metrics.
func TestConnectionChurnAddsNoSeries(t *testing.T) {
	reg := obsv.New()
	b, err := Listen("127.0.0.1:0", withSlog(quietLogger), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	addr := b.Addr().String()

	// settle answers one stream listing, which proves the accept loop (it
	// accepts in order) reached every earlier connection, then waits for
	// the broker to let every connection go.
	settle := func() {
		sub, err := DialSubscriber(addr, subCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sub.Streams(); err != nil {
			t.Fatal(err)
		}
		_ = sub.Close()
		testutil.WaitFor(t, 5*time.Second, "every connection unregistered", func() bool {
			b.mu.Lock()
			defer b.mu.Unlock()
			return len(b.conns) == 0
		})
	}
	settle()
	before := reg.Snapshot()
	for i := 0; i < 2000; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
	}
	settle()
	after := reg.Snapshot()
	var added []string
	for k := range after {
		if _, ok := before[k]; !ok {
			added = append(added, k)
		}
	}
	if len(added) > 0 || len(after) != len(before) {
		sort.Strings(added)
		t.Fatalf("%d keys before, %d after; added %d, first %q", len(before), len(after),
			len(added), added[:min(len(added), 3)])
	}
}
