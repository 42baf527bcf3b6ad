package experiment

import (
	"errors"
	"testing"

	"asbr/internal/cpu"
	"asbr/internal/fault"
	"asbr/internal/workload"
)

// TestFaultsTable runs the reliability sweep end to end at a small
// sample count: the clean control row must never diverge, every
// corruption plan must be detected with a nonzero divergence point,
// and the row set must be complete (benchmarks × plans).
func TestFaultsTable(t *testing.T) {
	rows, err := NewSweep(Options{Samples: 512, Seed: 1}).Faults()
	if err != nil {
		t.Fatalf("Faults: %v", err)
	}
	want := len(workload.Names()) * len(fault.Kinds())
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Error != nil {
			t.Errorf("%s/%s: cell failed: %s", r.Benchmark, r.Plan, r.Error.Message)
			continue
		}
		plan, err := fault.ParsePlan(r.Plan)
		if err != nil {
			t.Fatalf("%s: plan %q: %v", r.Benchmark, r.Plan, err)
		}
		if plan.Kind == fault.KindNone {
			if r.Injected != 0 || r.Diverged {
				t.Errorf("%s/none: injected=%d diverged=%v, want clean run",
					r.Benchmark, r.Injected, r.Diverged)
			}
			if r.Commits == 0 {
				t.Errorf("%s/none: no commits compared", r.Benchmark)
			}
			continue
		}
		if r.Injected == 0 {
			t.Errorf("%s/%s: injector never fired", r.Benchmark, r.Plan)
		}
		if !r.Diverged || r.PC == 0 || r.Cycle == 0 {
			t.Errorf("%s/%s: corruption not pinned to a divergence point: %+v",
				r.Benchmark, r.Plan, r)
		}
	}
}

// TestSweepDegradesOnCycleLimit: an absurdly small watchdog budget must
// not abort the table — every cell stays in the row set, labeled with a
// typed ErrCycleLimit, and the first error is surfaced to the caller.
func TestSweepDegradesOnCycleLimit(t *testing.T) {
	rows, err := NewSweep(Options{Samples: 512, Seed: 1, MaxCycles: 500}).Fig6()
	if err == nil {
		t.Fatal("want a first-cell error from the starved sweep")
	}
	var se *cpu.SimError
	if !errors.As(err, &se) || se.Code != cpu.ErrCycleLimit {
		t.Fatalf("error = %v, want wrapped ErrCycleLimit", err)
	}
	if len(rows) != len(workload.Names())*len(baselineUnits()) {
		t.Fatalf("rows = %d, want the complete table", len(rows))
	}
	for _, r := range rows {
		if r.Error == nil {
			t.Fatalf("%s/%s: cell survived a 500-cycle budget", r.Benchmark, r.Predictor)
		}
		if r.Error.Code != cpu.ErrCycleLimit.String() {
			t.Errorf("%s/%s: err = %+v, want ErrCycleLimit", r.Benchmark, r.Predictor, r.Error)
		}
		if r.Benchmark == "" || r.Predictor == "" {
			t.Errorf("failed row lost its identity: %+v", r)
		}
	}
}
