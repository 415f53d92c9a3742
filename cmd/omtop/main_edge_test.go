package main

// Table-driven edge-case tests for the exposition parsing and rendering
// helpers: splitLabels on malformed label blocks and reset markers when a
// counter goes backwards mid-window.

import (
	"strings"
	"testing"
	"time"
)

func TestSplitLabelsTable(t *testing.T) {
	cases := []struct {
		name, key  string
		wantOK     bool
		wantBase   string
		wantLabels map[string]string
	}{
		{
			name: "single label", key: `evb.records{stream="flights"}`,
			wantOK: true, wantBase: "evb.records",
			wantLabels: map[string]string{"stream": "flights"},
		},
		{
			name: "multiple labels", key: `w{a="1",b="2",c="3"}`,
			wantOK: true, wantBase: "w",
			wantLabels: map[string]string{"a": "1", "b": "2", "c": "3"},
		},
		{
			name: "empty label value", key: `w{a=""}`,
			wantOK: true, wantBase: "w",
			wantLabels: map[string]string{"a": ""},
		},
		{name: "no label block", key: "plain.counter", wantOK: false},
		{name: "empty key", key: "", wantOK: false},
		{name: "empty label block", key: "name{}", wantOK: false},
		{name: "missing closing brace", key: `name{a="b"`, wantOK: false},
		{name: "missing quotes", key: `name{a=b}`, wantOK: false},
		{name: "pair without equals", key: `name{ab}`, wantOK: false},
		{name: "trailing comma", key: `name{a="b",}`, wantOK: false},
		{name: "comma inside value unsupported", key: `name{a="x,y"}`, wantOK: false},
		{name: "brace only suffix", key: "name}", wantOK: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, labels, ok := splitLabels(tc.key)
			if ok != tc.wantOK {
				t.Fatalf("splitLabels(%q) ok = %v, want %v", tc.key, ok, tc.wantOK)
			}
			if !ok {
				return
			}
			if base != tc.wantBase {
				t.Errorf("base = %q, want %q", base, tc.wantBase)
			}
			if len(labels) != len(tc.wantLabels) {
				t.Fatalf("labels = %v, want %v", labels, tc.wantLabels)
			}
			for k, v := range tc.wantLabels {
				if labels[k] != v {
					t.Errorf("label %s = %q, want %q", k, labels[k], v)
				}
			}
		})
	}
}

func TestRateCellTable(t *testing.T) {
	cases := []struct {
		name      string
		cur, prev int64
		want      string
	}{
		{name: "steady rate", cur: 20, prev: 10, want: "5.0/s"},
		{name: "no movement", cur: 10, prev: 10, want: "0.0/s"},
		{name: "counter reset mid-window", cur: 3, prev: 1000, want: "reset"},
		{name: "fresh counter", cur: 4, prev: 0, want: "2.0/s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := rateCell(tc.cur, tc.prev, 2*time.Second)
			if !strings.Contains(got, tc.want) {
				t.Fatalf("rateCell(%d, %d) = %q, want to contain %q",
					tc.cur, tc.prev, got, tc.want)
			}
			if tc.want != "reset" && strings.Contains(got, "-") {
				t.Fatalf("negative rate leaked: %q", got)
			}
		})
	}
}

// TestRenderHistogramFamilyReset: a histogram family whose _count went
// backwards between polls must show the reset marker in its events/s column,
// not a negative rate.
func TestRenderHistogramFamilyReset(t *testing.T) {
	convert := func(count int64) *snapshot {
		h := &histogram{les: []int64{127}, cum: []int64{count}, count: count}
		return &snapshot{hists: map[string]*histogram{"dcg_convert_ns": h}}
	}
	out := render("test", convert(50000), convert(12), 2*time.Second)
	line := rowFor(out, "dcg_convert_ns")
	if line == "" {
		t.Fatalf("histogram family row missing:\n%s", out)
	}
	if !strings.Contains(line, "reset") {
		t.Fatalf("restarted histogram count not marked reset: %q", line)
	}
}

// TestRenderEmptySnapshot: rendering an empty snapshot must not panic and
// still prints the header.
func TestRenderEmptySnapshot(t *testing.T) {
	out := render("test", nil, &snapshot{}, 0)
	if !strings.Contains(out, "omtop") {
		t.Fatalf("header missing on empty snapshot:\n%s", out)
	}
}
