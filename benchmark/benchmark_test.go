package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks every size so a run takes well under a second.
func tinyConfig(workload string, trace bool) config {
	return config{
		workload: workload, seed: 3, window: 50 * time.Millisecond, trace: trace,
		plainN: 32, asbrN: 32, tablesN: 16, serveN: 32, probeN: 16,
		serveLog:  60,
		setupReps: 1,
	}
}

func mustRun(t *testing.T, c config) (*result, *tracer) {
	t.Helper()
	r, tr, err := run(context.Background(), c)
	if err != nil {
		t.Fatalf("%s: %v", c.workload, err)
	}
	return r, tr
}

// TestMetricNames checks that BENCHMARK.json names exactly the metrics
// the benchmark reports and that every emitted name is well formed.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.Workloads); !slices.Equal(got, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, workloads)
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, e2eMetrics)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, layerMetrics)
	}
}

// TestEveryWorkloadReportsItsMetrics runs every workload untraced and
// traced and checks the JSON summary carries every contract metric.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := tinyConfig(w, trace)
			r, _ := mustRun(t, c)
			if r.failed > 0 {
				t.Errorf("%s trace=%t: failures %v", w, trace, r.failures)
			}
			var out strings.Builder
			if err := report(&out, c, r); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var sum struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s: last line is not the JSON summary: %v", w, err)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			for _, name := range want {
				if _, ok := sum.Metrics[name]; !ok {
					t.Errorf("%s trace=%t: metric %s missing", w, trace, name)
				}
			}
			if len(sum.Metrics) != len(want) || !sum.Correct || sum.Attempted < 1 {
				t.Errorf("%s trace=%t: summary %+v", w, trace, sum)
			}
			for _, m := range r.metrics {
				if !valid.MatchString(m.name) {
					t.Errorf("%s: metric name %q is malformed", w, m.name)
				}
			}
		}
	}
}

// TestCountsRepeat checks that two runs give identical deterministic
// counts.
func TestCountsRepeat(t *testing.T) {
	counts := []string{"cpu.sim_instr", "cpu.sim_cycles", "core.fold_fallbacks", "core.fold_coverage", "cpu.superblock_instr_frac"}
	a, _ := mustRun(t, tinyConfig("asbr", true))
	b, _ := mustRun(t, tinyConfig("asbr", true))
	for _, name := range counts {
		ma, _ := a.find(name)
		mb, _ := b.find(name)
		if va, vb := ma.value, mb.value; va != vb || va == 0 && name == "cpu.sim_instr" {
			t.Errorf("%s: %v then %v", name, ma.value, mb.value)
		}
	}
}

// TestCorruptedGoldenFails records golden digests at tiny sizes,
// corrupts them per workload, and expects the check to report it.
func TestCorruptedGoldenFails(t *testing.T) {
	for _, w := range []string{"plain", "tables", "serve"} {
		c := tinyConfig(w, false)
		c.record = &golden{}
		mustRun(t, c)
		g := c.record
		c.record = nil

		c.golden = g
		if r, _ := mustRun(t, c); r.failed != 0 {
			t.Fatalf("%s: clean golden reported failures %v", w, r.failures)
		}
		switch w {
		case "plain":
			g.Plain["adpcm-enc/bimodal"] = "corrupt"
		case "tables":
			g.Tables = "corrupt"
		case "serve":
			for k := range g.Serve {
				g.Serve[k] = "corrupt"
			}
		}
		r, _ := mustRun(t, c)
		if r.failed == 0 || !strings.Contains(strings.Join(r.failures, "\n"), "golden corrupt") {
			t.Errorf("%s: corrupted golden digest not reported: %v", w, r.failures)
		}
	}
}

func TestSpansWellFormed(t *testing.T) {
	_, tr := mustRun(t, tinyConfig("plain", true))
	spans := tr.snapshot()
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	for _, lt := range selfTimes(spans) {
		if lt.self < 0 || lt.self > lt.total {
			t.Fatalf("self time %v outside [0, %v]", lt.self, lt.total)
		}
	}
	bad := []span{{ID: 1, Name: "pass", Start: 10, End: 20}, {ID: 2, Parent: 1, Name: "job", Start: 15, End: 25}}
	if checkSpans(bad) == nil {
		t.Error("a child outliving its parent passed the span check")
	}
}
