package testutil

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPollImmediateSuccess(t *testing.T) {
	start := time.Now()
	if !Poll(5*time.Second, func() bool { return true }) {
		t.Fatal("Poll must report success")
	}
	if time.Since(start) > time.Second {
		t.Fatal("immediate success must not wait")
	}
}

func TestPollEventualSuccess(t *testing.T) {
	var n atomic.Int32
	ok := Poll(5*time.Second, func() bool { return n.Add(1) >= 3 })
	if !ok || n.Load() < 3 {
		t.Fatalf("ok=%v calls=%d", ok, n.Load())
	}
}

func TestPollTimeout(t *testing.T) {
	var n atomic.Int32
	start := time.Now()
	if Poll(30*time.Millisecond, func() bool { n.Add(1); return false }) {
		t.Fatal("Poll must report timeout")
	}
	if n.Load() < 1 {
		t.Fatal("cond must run at least once")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout overshot far past the deadline")
	}
}

func TestPollZeroTimeoutRunsOnce(t *testing.T) {
	var n atomic.Int32
	Poll(0, func() bool { n.Add(1); return false })
	if n.Load() == 0 {
		t.Fatal("cond must run at least once with zero timeout")
	}
}

func TestWaitForPasses(t *testing.T) {
	// Must not fail the test when the condition holds.
	WaitFor(t, time.Second, "trivial condition", func() bool { return true })
}

func TestEventually(t *testing.T) {
	var msg string
	eventually(10*time.Millisecond, func() bool { return false }, func(m string) { msg = m })
	if msg == "" {
		t.Fatal("eventually must report failure")
	}
	msg = ""
	eventually(time.Second, func() bool { return true }, func(m string) { msg = m })
	if msg != "" {
		t.Fatalf("eventually reported failure on success: %s", msg)
	}
}

// recordingTB stands in for a test so NoGoroutineLeak's verdict can be read
// instead of failing this one.
type recordingTB struct {
	testing.TB
	cleanups []func()
	failure  string
}

func (r *recordingTB) Helper()          {}
func (r *recordingTB) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }
func (r *recordingTB) Errorf(format string, args ...any) {
	r.failure = fmt.Sprintf(format, args...)
}

func TestNoGoroutineLeak(t *testing.T) {
	defer func(d time.Duration) { leakWait = d }(leakWait)
	leakWait = 50 * time.Millisecond

	// A goroutine that ends shortly after the test body is not a leak.
	clean := &recordingTB{TB: t}
	NoGoroutineLeak(clean)
	go time.Sleep(5 * time.Millisecond)
	clean.cleanups[0]()
	if clean.failure != "" {
		t.Errorf("finished goroutine reported as a leak: %s", clean.failure)
	}

	// One that is still blocked when the wait runs out is, and the report
	// carries its stack.
	leaky := &recordingTB{TB: t}
	NoGoroutineLeak(leaky)
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	leaky.cleanups[0]()
	if !strings.Contains(leaky.failure, "TestNoGoroutineLeak") {
		t.Errorf("blocked goroutine not reported with its stack: %q", leaky.failure)
	}
}

func TestNoGoroutineLeakIsNotHiddenByAnotherEnding(t *testing.T) {
	defer func(d time.Duration) { leakWait = d }(leakWait)
	leakWait = 50 * time.Millisecond

	// A goroutine from before the call ends during the test while one the
	// test started stays: as many run as before, and it is still a leak.
	earlier, ended := make(chan struct{}), make(chan struct{})
	go func() { <-earlier; close(ended) }()
	tb := &recordingTB{TB: t}
	NoGoroutineLeak(tb)
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	close(earlier)
	<-ended
	tb.cleanups[0]()
	if !strings.Contains(tb.failure, "TestNoGoroutineLeakIsNotHiddenByAnotherEnding") {
		t.Errorf("leak hidden by an unrelated goroutine ending: %q", tb.failure)
	}
	if !strings.HasPrefix(tb.failure, "1 goroutines") {
		t.Errorf("report carries more than the one leaked goroutine:\n%s", tb.failure)
	}
}

func TestCountingListenerCountsEachConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := CountListener(ln)
	defer cl.Close()
	var dialed IOCounts
	for i := 1; i <= 2; i++ {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		client := CountConn(raw, &dialed)
		server, err := cl.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer server.Close()
		for j := 0; j < i; j++ {
			if _, err := client.Write([]byte("abc")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := io.ReadFull(server, make([]byte, 3*i)); err != nil {
			t.Fatal(err)
		}
	}
	if dialed.Writes.Load() != 3 || dialed.WrittenBytes.Load() != 9 || dialed.Reads.Load() != 0 {
		t.Errorf("dialed side: %d writes, %d bytes, %d reads; want 3, 9, 0",
			dialed.Writes.Load(), dialed.WrittenBytes.Load(), dialed.Reads.Load())
	}
	conns := cl.Conns()
	if len(conns) != 2 {
		t.Fatalf("%d accepted connections counted, want 2", len(conns))
	}
	for i, c := range conns {
		if got, want := c.ReadBytes.Load(), int64(3*(i+1)); got != want || c.Reads.Load() == 0 || c.Writes.Load() != 0 {
			t.Errorf("accepted connection %d: %d reads of %d bytes, %d writes; want %d bytes read, no writes",
				i, c.Reads.Load(), got, c.Writes.Load(), want)
		}
	}
}
