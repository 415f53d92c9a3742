package openmeta

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"openmeta/internal/eventbus"
	"openmeta/internal/faultnet"
	"openmeta/internal/machine"
	"openmeta/internal/obsv"
	"openmeta/internal/pbio"
	"openmeta/internal/testutil"
)

// TestQueueWaitStallEndToEnd is the acceptance scenario for queue-wait
// observability: a subscriber stalled behind a faultnet-throttled link while
// several publishers push bulk records. The broker's registry snapshot shows
// the frames that aged in the stalled subscriber's queue before hitting the
// wire, first as the queue-wait maximum and then in its p99.
func TestQueueWaitStallEndToEnd(t *testing.T) {
	reg := obsv.New()

	// The broker under observation: small queue so frames age visibly, a long
	// write deadline so the stall persists for the measurement window.
	broker, err := eventbus.Listen("127.0.0.1:0",
		eventbus.WithObserver(reg),
		eventbus.WithQueueDepth(32),
		eventbus.WithWriteDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	// The slow subscriber sits behind injected faultnet latency and never
	// drains, so its broker-side queue backs up and every dequeued frame has
	// aged in the queue.
	proxyAddr, closeProxy := stallingProxy(t, broker.Addr().String())
	defer closeProxy()
	subCtx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eventbus.DialSubscriber(proxyAddr, subCtx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe("bulk"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, "subscriber registration", func() bool {
		return broker.SubscriberCount("bulk") == 1
	})

	// Three concurrent publishers keep the stalled subscriber's queue full.
	const publishers = 3
	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubCtx, err := pbio.NewContext(machine.Native)
		if err != nil {
			t.Fatal(err)
		}
		bulk, err := pubCtx.RegisterSpec("Bulk", []pbio.FieldSpec{
			{Name: "seq", Kind: pbio.Int, CType: machine.CInt},
			{Name: "payload", Kind: pbio.Uint, CType: machine.CULong, Dynamic: true, CountField: "n"},
			{Name: "n", Kind: pbio.Int, CType: machine.CInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		pub, err := eventbus.DialPublisher(broker.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			defer pub.Close()
			payload := make([]uint64, 4096)
			for i := 0; ; i++ {
				select {
				case <-stopPub:
					return
				default:
				}
				if err := pub.PublishRecord("bulk", bulk, pbio.Record{"seq": i, "payload": payload}); err != nil {
					return
				}
			}
		}()
	}

	// Frames dequeued for the stalled subscriber aged in its queue.
	testutil.WaitFor(t, 15*time.Second, "queue-wait excursion in the snapshot", func() bool {
		return reg.Snapshot()["eventbus.queue_wait_ns.max"] > (10 * time.Millisecond).Nanoseconds()
	})

	// The excursion reaches the queue-wait p99.
	testutil.WaitFor(t, 15*time.Second, "queue-wait p99 excursion in the snapshot", func() bool {
		return reg.Snapshot()["eventbus.queue_wait_ns.p99"] > (10 * time.Millisecond).Nanoseconds()
	})
	close(stopPub)
	pubWG.Wait()
	closeProxy()
	_ = sub.Close()
}

// stallingProxy forwards one TCP connection to target with faultnet latency
// injected on the target-side conn, so everything the broker sends the
// subscriber crawls. Returns the proxy address and an idempotent closer.
func stallingProxy(t *testing.T, target string) (addr string, closeProxy func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		client, err := ln.Accept()
		if err != nil {
			return
		}
		upstream, err := net.Dial("tcp", target)
		if err != nil {
			client.Close()
			return
		}
		conns = append(conns, client, upstream)
		// A handful of clean ops lets the hello/subscribe handshake through,
		// then every operation eats 100ms of injected latency.
		sched := faultnet.NewSchedule(
			faultnet.Fault{}, faultnet.Fault{}, faultnet.Fault{}, faultnet.Fault{},
			faultnet.Fault{}, faultnet.Fault{}, faultnet.Fault{}, faultnet.Fault{},
			faultnet.Fault{Kind: faultnet.Latency, Delay: 100 * time.Millisecond},
		).Loop()
		slow := faultnet.Wrap(upstream, sched)
		go func() { _, _ = io.Copy(slow, client) }()
		_, _ = io.Copy(client, slow)
	}()
	var closed bool
	return ln.Addr().String(), func() {
		if closed {
			return
		}
		closed = true
		_ = ln.Close()
		for _, c := range conns {
			_ = c.Close()
		}
		<-done
	}
}
