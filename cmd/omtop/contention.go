package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"openmeta/internal/obsv"
)

// The -contention view: tracked-lock wait/hold tables plus the hottest
// runtime mutex/block profile sites, from a daemon's /debug/contention. A
// daemon that does not serve the endpoint (an older build, or one that is
// down) renders a one-line notice instead of failing the view.

func runContention(name, base string, interval time.Duration, n int, once, clear bool, out io.Writer) error {
	url := base + "/debug/contention"
	refresh := func() {
		if clear && !once {
			fmt.Fprint(out, "\x1b[2J\x1b[H")
		}
		fmt.Fprintf(out, "omtop -contention  %s\n", time.Now().Format("15:04:05"))
		fmt.Fprint(out, fetchContention(name, url))
	}
	refresh()
	if once {
		return nil
	}
	for i := 1; n == 0 || i < n; i++ {
		time.Sleep(interval)
		refresh()
	}
	return nil
}

// fetchContention fetches and renders one daemon's snapshot, degrading to a
// notice line on any failure (unreachable, non-200, undecodable).
func fetchContention(name, url string) string {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Sprintf("\n%s: contention endpoint unavailable (%v)\n", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("\n%s: contention endpoint unavailable (HTTP %d)\n", name, resp.StatusCode)
	}
	var snap obsv.ContentionSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Sprintf("\n%s: bad contention body (%v)\n", name, err)
	}
	return renderContention(name, snap)
}

// renderContention formats one daemon's snapshot: the tracked locks first
// (always present — they need no profiling rate), then the top runtime
// profile sites when the daemon runs with -contention-rate.
func renderContention(name string, snap obsv.ContentionSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s  (mutex fraction %d, block rate %dns)\n",
		name, snap.MutexProfileFraction, snap.BlockProfileRateNS)
	if len(snap.Locks) == 0 {
		fmt.Fprint(&b, "  no tracked locks\n")
	} else {
		fmt.Fprintf(&b, "  %-28s %10s %10s %10s %10s %10s %10s\n",
			"tracked lock", "acquires", "wait p50", "wait p99", "wait max", "hold p99", "rwait p99")
		for _, l := range snap.Locks {
			rwait := "-"
			if l.RWait != nil {
				rwait = fmt.Sprint(l.RWait.P99NS)
			}
			fmt.Fprintf(&b, "  %-28s %10d %10d %10d %10d %10d %10s\n",
				l.Name, l.Wait.Count, l.Wait.P50NS, l.Wait.P99NS, l.Wait.MaxNS, l.Hold.P99NS, rwait)
		}
	}
	b.WriteString(renderSites("mutex sites", snap.Mutex))
	b.WriteString(renderSites("block sites", snap.Block))
	return b.String()
}

func renderSites(title string, sites []obsv.ContentionSite) string {
	if len(sites) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-52s %10s %8s %14s %12s\n", title, "count", "Δcount", "cycles", "Δcycles")
	for i, s := range sites {
		if i >= 10 {
			fmt.Fprintf(&b, "  … %d more\n", len(sites)-i)
			break
		}
		fmt.Fprintf(&b, "  %-52s %10d %8d %14d %12d\n", s.Site, s.Count, s.CountDelta, s.Cycles, s.CyclesDelta)
	}
	return b.String()
}
