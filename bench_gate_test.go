package openmeta

// Tests for the scripts/bench.sh regression gate, driven against fixture
// JSON via the -compare-only mode (no benchmarks run). These pin the CI
// bench-smoke failure modes: a gated benchmark missing from the baseline
// must fail loudly (the silent no-regression hole), a hot path over its
// absolute budget must fail, and results within the gate must pass, however
// far the ungated benchmarks move.

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func benchGate(t *testing.T, current, baseline string, env ...string) (string, error) {
	t.Helper()
	if _, err := exec.LookPath("jq"); err != nil {
		t.Skip("jq not installed")
	}
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("sh not installed")
	}
	cmd := exec.Command("sh", "scripts/bench.sh", "-compare-only",
		filepath.Join("testdata", "benchgate", current),
		filepath.Join("testdata", "benchgate", baseline))
	cmd.Dir = "."
	cmd.Env = append(cmd.Environ(), env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestBenchGatePass(t *testing.T) {
	out, err := benchGate(t, "current_pass.json", "baseline.json")
	if err != nil {
		t.Fatalf("clean compare failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "RESULT: PASS") {
		t.Fatalf("expected RESULT: PASS:\n%s", out)
	}
	// The non-gated Table3 blowup (9µs -> 20µs) must be reported info-only.
	if strings.Contains(out, "REGRESSED") {
		t.Fatalf("non-gated benchmark was gated:\n%s", out)
	}
}

func TestBenchGateMissingBaselineKey(t *testing.T) {
	// The baseline lacks the gated BenchmarkTable2WireFormats/pbio_encode
	// which the current run has: the old jq path silently treated that as
	// no-regression; now it must fail with a clear message.
	out, err := benchGate(t, "current_pass.json", "baseline_nokey.json")
	if err == nil {
		t.Fatalf("missing gated baseline key passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "MISSING") {
		t.Fatalf("no MISSING row in output:\n%s", out)
	}
	if !strings.Contains(out, "missing a gated benchmark") {
		t.Fatalf("missing clear missing-key message:\n%s", out)
	}
}

func TestBenchGateAbsoluteBudget(t *testing.T) {
	// BenchmarkObserveExemplar over its absolute ns/op budget must fail even
	// though no relative gate tripped.
	out, err := benchGate(t, "current_overbudget.json", "baseline.json")
	if err == nil {
		t.Fatalf("over-budget exemplar recording passed:\n%s", out)
	}
	if !strings.Contains(out, "exceeds budget") {
		t.Fatalf("missing budget failure message:\n%s", out)
	}
	// Raising the budget clears it.
	out, err = benchGate(t, "current_overbudget.json", "baseline.json",
		"EXEMPLAR_BUDGET_NS=5000000")
	if err != nil {
		t.Fatalf("raised budget should pass: %v\n%s", err, out)
	}
}

func TestBenchGateUsageErrors(t *testing.T) {
	if _, err := exec.LookPath("jq"); err != nil {
		t.Skip("jq not installed")
	}
	// Missing files and missing operands must be usage errors, not passes.
	cmd := exec.Command("sh", "scripts/bench.sh", "-compare-only", "nope.json")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("missing operand accepted:\n%s", out)
	}
	cmd = exec.Command("sh", "scripts/bench.sh", "-compare-only", "nope.json", "alsono.json")
	out, err = cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("nonexistent files accepted:\n%s", out)
	}
}
