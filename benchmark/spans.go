package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// sampleEvery is the share of records (or cold_bind sessions) whose spans
// the traced run keeps: 1 in 16.
const sampleEvery = 16

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Spans of one record share Rec; Parent names the
// span that caused this one ("record" is the root, from the start of encode
// to the last verification).
type span struct {
	Name    string `json:"name"`
	Phase   string `json:"phase"`
	Rec     int64  `json:"rec"`
	Sub     int    `json:"sub"` // subscriber index; -1 on the publishing side
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"` // since the run's epoch
	EndNS   int64  `json:"end_ns"`
}

// spanLog is an in-memory span list owned by one goroutine. Logs are merged
// and written out only when the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(name, phase string, rec int64, sub int, start, end time.Time) {
	parent := "record"
	if name == "record" {
		parent = ""
	}
	l.spans = append(l.spans, span{
		Name: name, Phase: phase, Rec: rec, Sub: sub, Parent: parent,
		StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds(),
	})
}

// durations returns the sorted durations of the named spans of one phase
// ("" for every phase), one per call.
func durations(spans []span, phase, name string) []int64 {
	var out []int64
	for i := range spans {
		if spans[i].Name == name && (phase == "" || spans[i].Phase == phase) {
			out = append(out, spans[i].EndNS-spans[i].StartNS)
		}
	}
	return sortInt64(out)
}

func medianSpanUS(spans []span, phase, name string) float64 {
	return us(quantile(durations(spans, phase, name), 0.5))
}

// delivery is the anatomy of one sampled delivery: its end-to-end time (the
// "record" span) and the time of each step, calls of one name added up.
type delivery struct {
	total int64
	steps map[string]int64
}

// deliveries groups the spans of one phase by record and subscriber. Spans
// from the publishing side (Sub -1) belong to every delivery of that record;
// a step the subscriber side recorded itself takes precedence.
func deliveries(spans []span, phase string) []delivery {
	type key struct {
		rec int64
		sub int
	}
	byKey := make(map[key]*delivery)
	get := func(k key) *delivery {
		d := byKey[k]
		if d == nil {
			d = &delivery{steps: make(map[string]int64)}
			byKey[k] = d
		}
		return d
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Phase != phase {
			continue
		}
		d := get(key{sp.Rec, sp.Sub})
		if sp.Name == "record" {
			d.total = sp.EndNS - sp.StartNS
		} else {
			d.steps[sp.Name] += sp.EndNS - sp.StartNS
		}
	}
	var out []delivery
	for k, d := range byKey {
		if k.sub < 0 || d.total == 0 {
			continue
		}
		if pub := byKey[key{k.rec, -1}]; pub != nil {
			for name, ns := range pub.steps {
				if _, own := d.steps[name]; !own {
					d.steps[name] = ns
				}
			}
		}
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total < out[j].total })
	return out
}

// writeTrace stores the spans as JSON under dir.
func writeTrace(dir, workload string, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// shareTable prints the anatomy of the median delivery: each step's time as
// a share of the end-to-end time, averaged over the sampled deliveries whose
// end-to-end time lies between the 40th and the 60th percentile. Medians of
// single steps do not add up (a slow publish goes with a short transit, and
// cold_bind mixes small and large documents); means over one band do. The
// steps follow one another while nothing else is in flight, so the column
// sums to about 100; a sum far from that means time is spent where no span
// covers it. It returns the sum.
func shareTable(w io.Writer, spans []span, phase string, steps []string) float64 {
	all := deliveries(spans, phase)
	band := all[len(all)*2/5 : (len(all)*3+4)/5]
	if len(band) == 0 {
		return 0
	}
	var total float64
	for _, d := range band {
		total += float64(d.total)
	}
	fmt.Fprintf(w, "  median delivery (%s, %d of %d sampled, %.2f us end to end)\n", phase, len(band), len(all), total/float64(len(band))/1e3)
	fmt.Fprintf(w, "  %-22s %10s %12s\n", "step", "us", "% of total")
	var sum float64
	for _, name := range steps {
		var ns float64
		for _, d := range band {
			ns += float64(d.steps[name])
		}
		pct := 100 * ns / total
		sum += pct
		fmt.Fprintf(w, "  %-22s %10.2f %11.1f%%\n", name, ns/float64(len(band))/1e3, pct)
	}
	fmt.Fprintf(w, "  %-22s %10s %11.1f%%\n", "sum", "", sum)
	return sum
}
