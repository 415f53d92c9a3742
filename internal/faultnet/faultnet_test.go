package faultnet

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns both ends of an in-memory connection, the near end
// wrapped with the schedule.
func pipePair(t *testing.T, s *Schedule) (*Conn, net.Conn) {
	t.Helper()
	near, far := net.Pipe()
	t.Cleanup(func() { _ = near.Close(); _ = far.Close() })
	return Wrap(near, s), far
}

func TestCleanPassThrough(t *testing.T) {
	c, far := pipePair(t, nil)
	go func() { _, _ = far.Write([]byte("hello")) }()
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
}

func TestShortRead(t *testing.T) {
	c, far := pipePair(t, NewSchedule(Fault{Kind: ShortRead, N: 2}))
	go func() { _, _ = far.Write([]byte("hello")) }()
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || n != 2 {
		t.Fatalf("short Read = %d, %v; want 2, nil", n, err)
	}
	// Remainder still arrives on the next (clean) read.
	n, err = c.Read(buf)
	if err != nil || n != 3 {
		t.Fatalf("follow-up Read = %d, %v; want 3, nil", n, err)
	}
}

func TestPartialWriteDeliversPrefixThenFails(t *testing.T) {
	c, far := pipePair(t, NewSchedule(Fault{Kind: PartialWrite, N: 3}))
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := far.Read(buf)
		got <- buf[:n]
	}()
	n, err := c.Write([]byte("hello"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Write err = %v, want ErrInjected", err)
	}
	if n != 3 {
		t.Fatalf("Write n = %d, want 3", n)
	}
	if prefix := <-got; string(prefix) != "hel" {
		t.Fatalf("peer saw %q, want the 3-byte prefix", prefix)
	}
	if !c.Broken() {
		t.Fatal("connection should be broken after a partial write")
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-break Write err = %v, want ErrInjected", err)
	}
}

func TestReset(t *testing.T) {
	c, _ := pipePair(t, NewSchedule(Fault{Kind: Reset}))
	if _, err := c.Write([]byte("hello")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Write err = %v, want ErrInjected", err)
	}
	if !c.Broken() {
		t.Fatal("reset must break the connection")
	}
}

func TestDropAfterBudget(t *testing.T) {
	c, far := pipePair(t, NewSchedule(Fault{Kind: DropAfter, N: 4}))
	go func() { _, _ = io.ReadAll(far) }()
	// First write fits in the 4-byte allowance only partially: 4 bytes go
	// through, then the connection dies.
	n, err := c.Write([]byte("hello"))
	if n != 4 || !errors.Is(err, ErrInjected) {
		t.Fatalf("Write = %d, %v; want 4 bytes then injected failure", n, err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-drop Write err = %v, want ErrInjected", err)
	}
}

func TestLatencyDelays(t *testing.T) {
	c, far := pipePair(t, NewSchedule(Fault{Kind: Latency, Delay: 20 * time.Millisecond}))
	go func() {
		buf := make([]byte, 8)
		_, _ = far.Read(buf)
	}()
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("Write err = %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency fault waited only %v", d)
	}
}

func TestScheduleExhaustionAndLoop(t *testing.T) {
	s := NewSchedule(Fault{Kind: ShortRead, N: 1})
	if f := s.next(); f.Kind != ShortRead {
		t.Fatalf("first fault = %v", f.Kind)
	}
	if f := s.next(); f.Kind != None {
		t.Fatalf("exhausted schedule should yield None, got %v", f.Kind)
	}
	l := NewSchedule(Fault{Kind: Reset}).Loop()
	for i := 0; i < 5; i++ {
		if f := l.next(); f.Kind != Reset {
			t.Fatalf("looping schedule run %d = %v", i, f.Kind)
		}
	}
}

// TestGenerateDeterministic is the ISSUE's property test: the same seed
// yields byte-identical fault sequences; different seeds diverge.
func TestGenerateDeterministic(t *testing.T) {
	p := defaultProfile()
	for _, seed := range []int64{1, 42, -7, 1 << 40} {
		a := generate(seed, 500, p)
		b := generate(seed, 500, p)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: fault %d differs: %+v vs %+v", seed, i, a[i], b[i])
			}
		}
	}
	a := generate(1, 500, p)
	c := generate(2, 500, p)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestGenerateRespectsProfileBounds(t *testing.T) {
	p := profile{PReset: 1} // all resets
	for _, f := range generate(3, 100, p) {
		if f.Kind != Reset {
			t.Fatalf("all-reset profile produced %v", f.Kind)
		}
	}
	p = profile{PLatency: 1, MaxDelay: time.Millisecond}
	for _, f := range generate(3, 100, p) {
		if f.Kind != Latency || f.Delay <= 0 || f.Delay > time.Millisecond {
			t.Fatalf("latency profile produced %+v", f)
		}
	}
}

func TestWrapListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := wrapListener(ln, NewSchedule(Fault{Kind: Reset}))
	defer fl.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := fl.Accept()
		if err != nil {
			done <- err
			return
		}
		_, err = conn.Write([]byte("x"))
		done <- err
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := <-done; !errors.Is(err, ErrInjected) {
		t.Fatalf("accepted conn write err = %v, want ErrInjected", err)
	}
}
