package obsv

import (
	"runtime"
	"strings"
	"testing"
)

// TestRuntimeBridgeSample proves the bridge populates the registry from the
// live runtime: forced GC cycles must surface as pause samples and a cycle
// count, and the gauges must read as a real process (goroutines > 0, heap
// > 0).
func TestRuntimeBridgeSample(t *testing.T) {
	r := New()
	b := NewRuntimeBridge(r)
	runtime.GC()
	runtime.GC()
	b.Sample()
	snap := r.Snapshot()

	if snap["runtime.goroutines"] < 1 {
		t.Fatalf("runtime.goroutines = %d, want >= 1", snap["runtime.goroutines"])
	}
	if snap["runtime.heap.alloc_bytes"] <= 0 {
		t.Fatalf("runtime.heap.alloc_bytes = %d, want > 0", snap["runtime.heap.alloc_bytes"])
	}
	if snap["runtime.mem.total_bytes"] <= 0 {
		t.Fatalf("runtime.mem.total_bytes = %d, want > 0", snap["runtime.mem.total_bytes"])
	}
	if snap["runtime.gc.cycles"] < 2 {
		t.Fatalf("runtime.gc.cycles = %d, want >= 2 after two forced GCs", snap["runtime.gc.cycles"])
	}
	if snap["runtime.gc.pause_ns.count"] < 2 {
		t.Fatalf("runtime.gc.pause_ns.count = %d, want >= 2 after two forced GCs", snap["runtime.gc.pause_ns.count"])
	}
	// Histograms expand with the standard six siblings.
	for _, k := range []string{".count", ".sum", ".max", ".p50", ".p95", ".p99"} {
		if _, ok := snap["runtime.gc.pause_ns"+k]; !ok {
			t.Fatalf("snapshot lacks runtime.gc.pause_ns%s", k)
		}
	}

	// A second sample replays only deltas: cumulative counts never regress.
	before := snap["runtime.gc.pause_ns.count"]
	runtime.GC()
	b.Sample()
	after := r.Snapshot()["runtime.gc.pause_ns.count"]
	if after < before+1 {
		t.Fatalf("pause count went %d -> %d, want at least one new sample", before, after)
	}
}

// TestRuntimeBridgeFamilies: both runtime histograms expand to the full
// six-key snapshot family and the goroutine gauge is present.
func TestRuntimeBridgeFamilies(t *testing.T) {
	r := New()
	b := NewRuntimeBridge(r)
	runtime.GC()
	b.Sample()
	snap := r.Snapshot()

	if _, ok := snap["runtime.goroutines"]; !ok {
		t.Fatalf("snapshot lacks the goroutine gauge; keys: %v", keysLike(snap, "runtime."))
	}
	for _, h := range []string{"runtime.gc.pause_ns", "runtime.sched.latency_ns"} {
		for _, k := range []string{".count", ".sum", ".max", ".p50", ".p95", ".p99"} {
			if _, ok := snap[h+k]; !ok {
				t.Fatalf("snapshot lacks %s%s; keys: %v", h, k, keysLike(snap, "runtime."))
			}
		}
	}
}

func keysLike(m map[string]int64, prefix string) []string {
	var out []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}
