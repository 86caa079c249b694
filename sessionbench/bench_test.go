package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps each workload's pool to a handful of inputs.
var tinyScale = scale{ddtPool: 13, durablePool: 2, history: 300}

func tinyConfig(t *testing.T, traced bool) config {
	return config{
		seed:     7,
		seconds:  time.Millisecond,
		traced:   traced,
		traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
		log:      io.Discard,
	}
}

// TestEveryMetricPrinted runs every workload at a tiny size, untraced and
// traced, and checks that the result carries each named metric with its
// unit, every session passing its checks.
func TestEveryMetricPrinted(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, tinyScale, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res, err := measure(context.Background(), w, tinyConfig(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d sessions failed", name, traced, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", name, traced, d.name)
				case m.Unit == "" || m.Unit != d.unit:
					t.Errorf("%s traced=%v: %s has unit %q, want %q", name, traced, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", name, traced, d.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics in
// step with the ones the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark reports %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), benchmark reports %s (%s)",
					c.what, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestInputsDeterministic checks that a seed always generates the same
// inputs and another seed different ones.
func TestInputsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, tinyScale, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.generate(1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.generate(1)
		c, _ := w.generate(2)
		if a != b || a == c {
			t.Errorf("%s: fingerprints seed 1 %016x, again %016x, seed 2 %016x", name, a, b, c)
		}
	}
}

// TestBrokenResumeFails resumes every durable session from an empty
// directory: the WAL-replay step must fail its check and count toward
// failed_frac.
func TestBrokenResumeFails(t *testing.T) {
	w := &durableWorkload{pool: 2, history: 300, stateRoot: t.TempDir(), resumeFrom: t.TempDir()}
	if _, err := w.generate(7); err != nil {
		t.Fatal(err)
	}
	res, err := measureSessions(context.Background(), w, tinyConfig(t, false), 0)
	if err == nil {
		t.Error("measureSessions succeeded with every resume broken")
	}
	if res.Correct || res.Attempted == 0 || res.failedFrac() == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d: want failures counted", res.Correct, res.Attempted, res.Failed)
	}
}

// TestSelfTime subtracts the union of a span's direct children: children
// that overlap each other count once, a grandchild inside its parent adds
// nothing, and a child running past its parent is clipped.
func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40}, // overlaps 2: together [10,40)
		{ID: 4, Parent: 1, Start: 50, End: 60},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // clipped to [90,100)
	}
	if got := selfTime(parent, children); got != 100-30-10-10 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}

	// The same shape through the tracer's own grouping, with a grandchild
	// nested inside span 4 that must not be subtracted from the parent.
	tr := &tracer{spans: append([]span{parent}, children...)}
	tr.spans = append(tr.spans, span{ID: 6, Parent: 4, Start: 52, End: 55})
	tr.spans[0].Name = "core.search"
	for i := 1; i < len(tr.spans); i++ {
		tr.spans[i].Name = "oracle"
	}
	lt := tr.totals()
	if got := lt["core.search"].self; got != 50 {
		t.Errorf("tracer self time = %d, want 50", got)
	}
	if got := lt["oracle"].n; got != 5 {
		t.Errorf("oracle spans = %d, want 5", got)
	}
}
