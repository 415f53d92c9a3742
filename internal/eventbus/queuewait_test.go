package eventbus

import (
	"strings"
	"testing"
	"time"

	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/trace"
)

// TestQueueWaitObservability proves the writeLoop's enqueue→wire timing
// lands everywhere the tentpole routes it: the broker-wide queue_wait_ns
// histogram, the per-subscriber labeled child, and a broker.queue span under
// the publish's trace.
func TestQueueWaitObservability(t *testing.T) {
	tr := trace.NewTracer(1024)
	tr.SetSampling(1)
	reg := obsv.New()

	b, err := Listen("127.0.0.1:0", withSlog(quietLogger), WithTracer(tr), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })

	sub, err := DialSubscriber(b.Addr().String(), subCtx(t), WithClientTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	if err := sub.Subscribe("flights"); err != nil {
		t.Fatal(err)
	}
	pub, err := DialPublisher(b.Addr().String(), WithClientTracer(tr))
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

	// Metrics: the event frame's dequeue must be observed in the aggregate
	// histogram and a per-connection labeled child (format frames count
	// too, so >= 1 is the floor). The writer observes before the socket
	// write, so by the time the subscriber saw the event it is recorded.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := reg.Snapshot()
		agg := snap["eventbus.queue_wait_ns.count"]
		labeled := int64(0)
		for k, v := range snap {
			if strings.HasPrefix(k, `eventbus.subscriber.queue_wait_ns{conn="`) && strings.HasSuffix(k, ".count") {
				labeled += v
			}
		}
		if agg >= 1 && labeled >= 1 {
			if agg != labeled {
				t.Fatalf("aggregate queue-wait count %d != summed labeled children %d", agg, labeled)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue-wait metrics never appeared; agg=%d labeled=%d", agg, labeled)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
