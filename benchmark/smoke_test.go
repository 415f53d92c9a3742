package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	os.Exit(m.Run())
}

// waitGoroutines waits for the goroutine count to come back down to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the run, %d after teardown:\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSmoke runs every workload traced with short phases and checks that each
// metric is printed once with its unit, that nothing failed and that nothing
// is left running.
func TestSmoke(t *testing.T) {
	seconds := 900 * time.Millisecond // phases of 0.3 s
	if testing.Short() {
		seconds = 300 * time.Millisecond
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var out bytes.Buffer
			cfg := config{seed: 5, seconds: seconds, trace: true, outDir: t.TempDir(), out: &out}
			if code := execute(w.Name, cfg); code != 0 {
				t.Fatalf("exit code %d\n%s", code, out.String())
			}
			waitGoroutines(t, base)

			text := out.String()
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s+-?[0-9.]+ ` + regexp.QuoteMeta(d.Unit) + `$`)
					if n := len(re.FindAllString(text, -1)); n != 1 {
						t.Errorf("%s printed %d times with unit %s, want once", d.Name, n, d.Unit)
					}
				}
			}

			lines := strings.Split(strings.TrimSpace(text), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" {
				t.Errorf("contract line: %s", lines[len(lines)-1])
			}
			var metrics map[string]metricJSON
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(perLayer) {
				t.Errorf("traced contract line has %d metrics, want the %d per-layer ones", len(metrics), len(perLayer))
			}

			data, err := os.ReadFile(cfg.outDir + "/run-" + w.Name + "-layers.json")
			if err != nil {
				t.Fatal(err)
			}
			var rep report
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.EndToEnd["verified_share"] != 1 || rep.PerLayer["harness.fail_share"] != 0 {
				t.Errorf("failures: %+v", rep.Failures)
			}
			for _, d := range endToEnd {
				if rep.EndToEnd[d.Name] <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, rep.EndToEnd[d.Name])
				}
			}
			if w.Name != "cold_bind" && rep.PerLayer["broker.dropped"] != 0 {
				t.Errorf("broker dropped %v records", rep.PerLayer["broker.dropped"])
			}
			if rep.ShareSum < 90 || rep.ShareSum > 110 {
				t.Errorf("steps of the median delivery sum to %.1f%% of its latency", rep.ShareSum)
			}
			env := rep.Environment
			if rep.Seed != 5 || env.Commit == "" || env.GoVersion == "" || env.CPUModel == "" || env.NProc == 0 || env.GOMAXPROCS == 0 || len(rep.Phases) == 0 {
				t.Errorf("report lacks its provenance: %+v", rep)
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.Name + ".json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// flipConn damages the stream a subscriber reads: it follows the eventbus
// framing (type, 4-byte length, payload) and flips one bit in the last
// payload byte of the target-th event frame, leaving the framing intact.
type flipConn struct {
	net.Conn
	hdr    [5]byte
	hdrN   int
	typ    byte
	left   int
	events int
}

const (
	frameEvent = 6 // eventbus: broker to subscriber, stream || format id || record
	flipTarget = 700
)

func (c *flipConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for i := 0; i < n; i++ {
		if c.left == 0 {
			c.hdr[c.hdrN] = p[i]
			if c.hdrN++; c.hdrN == len(c.hdr) {
				c.hdrN, c.typ = 0, c.hdr[0]
				c.left = int(c.hdr[1])<<24 | int(c.hdr[2])<<16 | int(c.hdr[3])<<8 | int(c.hdr[4])
				if c.typ == frameEvent {
					c.events++
				}
			}
			continue
		}
		if c.left--; c.left == 0 && c.typ == frameEvent && c.events == flipTarget {
			p[i] ^= 0x40
		}
	}
	return n, err
}

// TestDamagedPayloadFails proves the verification is live: one flipped byte
// per subscriber connection must show as failed deliveries, correct=false
// and a non-zero exit. On small_plain the byte ends a string (a decode
// error); on fanout_mixed it sits in a number each of the three subscribers
// checks (a value mismatch).
func TestDamagedPayloadFails(t *testing.T) {
	for _, name := range []string{"small_plain", "fanout_mixed"} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var out bytes.Buffer
			cfg := config{seed: 5, seconds: 300 * time.Millisecond, outDir: t.TempDir(), out: &out,
				wrapConn: func(c net.Conn) net.Conn { return &flipConn{Conn: c} }}
			code := execute(name, cfg)
			waitGoroutines(t, base)
			if code != 1 {
				t.Errorf("exit code %d, want 1", code)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct bool
				Failed  int64
				Metrics map[string]metricJSON
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			// Every set-up's connections are wrapped, so each subscriber of
			// each of the setupRuns systems sees one damaged record.
			want := int64(setupRuns * len(busSpecs[name].subs))
			if line.Correct || line.Failed != want || line.Metrics["verified_share"].Value >= 1 {
				t.Errorf("correct=%t failed=%d (want %d) verified_share=%v", line.Correct, line.Failed, want, line.Metrics["verified_share"].Value)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the driver reads, the
// same as the tables the program prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Workloads, workloads) {
		t.Errorf("workloads differ:\n%+v\n%+v", doc.Workloads, workloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", doc.PerLayer, perLayer)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	var setup bool
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
