package experiment

import (
	"reflect"
	"testing"

	"asbr/internal/workload"
)

// sweepSnapshot is every table a full sweep produces, for deep
// comparison across worker counts.
type sweepSnapshot struct {
	Fig6      []Fig6Row
	Fig11     []Fig11Row
	Branches  BranchTable
	Threshold []ThresholdRow
	BITSize   []BITSizeRow
	Sched     []SchedulingRow
	Validity  []ValidityRow
	Power     []PowerRow
}

func snapshot(t *testing.T, parallel int) sweepSnapshot {
	t.Helper()
	opt := Options{Samples: 512, Seed: 1, Parallel: parallel}
	s := NewSweep(opt)
	var snap sweepSnapshot
	var err error
	if snap.Fig6, err = s.Fig6(); err != nil {
		t.Fatalf("parallel=%d: Fig6: %v", parallel, err)
	}
	if snap.Fig11, err = s.Fig11(); err != nil {
		t.Fatalf("parallel=%d: Fig11: %v", parallel, err)
	}
	if snap.Branches, err = s.SelectedBranches(workload.ADPCMEncode); err != nil {
		t.Fatalf("parallel=%d: SelectedBranches: %v", parallel, err)
	}
	if snap.Threshold, err = s.ThresholdAblation(workload.ADPCMEncode); err != nil {
		t.Fatalf("parallel=%d: ThresholdAblation: %v", parallel, err)
	}
	if snap.BITSize, err = s.BITSizeAblation(workload.ADPCMEncode, []int{1, 2, 4, 8}); err != nil {
		t.Fatalf("parallel=%d: BITSizeAblation: %v", parallel, err)
	}
	if snap.Sched, err = s.SchedulingAblation(workload.ADPCMEncode); err != nil {
		t.Fatalf("parallel=%d: SchedulingAblation: %v", parallel, err)
	}
	if snap.Validity, err = s.ValidityAblation(workload.ADPCMEncode); err != nil {
		t.Fatalf("parallel=%d: ValidityAblation: %v", parallel, err)
	}
	if snap.Power, err = s.PowerArea(); err != nil {
		t.Fatalf("parallel=%d: PowerArea: %v", parallel, err)
	}
	return snap
}

// TestParallelDeterminism is the engine's core guarantee: every table
// of the sweep — row order and every number — is identical whether the
// jobs run serially or on 2 or 8 workers.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep comparison is slow")
	}
	want := snapshot(t, 1)
	for _, par := range []int{2, 8} {
		got := snapshot(t, par)
		if !reflect.DeepEqual(got, want) {
			diffSnapshots(t, par, got, want)
		}
	}
}

func diffSnapshots(t *testing.T, par int, got, want sweepSnapshot) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("parallel=%d: %s differs from serial:\n got  %+v\n want %+v",
				par, name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}

// TestSweepArtifactSharing checks the exactly-once side of the engine:
// a Fig11 sweep at 8 workers must profile each benchmark once, select
// its branches once, and run each needed baseline once, no matter how
// many of its 12 jobs ask for them.
func TestSweepArtifactSharing(t *testing.T) {
	s := NewSweep(Options{Samples: 512, Seed: 1, Parallel: 8})
	if _, err := s.Fig11(); err != nil {
		t.Fatal(err)
	}
	cs := s.CacheStats()
	benches := uint64(len(workload.Names()))
	if cs.ProfiledRuns != benches {
		t.Errorf("ProfiledRuns = %d, want %d (one per benchmark)", cs.ProfiledRuns, benches)
	}
	if cs.Selections != benches {
		t.Errorf("Selections = %d, want %d", cs.Selections, benches)
	}
	// Fig11 needs both baselines (not-taken for the "not taken" aux
	// row, bimodal-2048 for the others) for every benchmark.
	if cs.BaselineRuns != 2*benches {
		t.Errorf("BaselineRuns = %d, want %d", cs.BaselineRuns, 2*benches)
	}
	if cs.Artifacts.ProgramBuilds != benches {
		t.Errorf("ProgramBuilds = %d, want %d", cs.Artifacts.ProgramBuilds, benches)
	}
	if cs.Artifacts.InputBuilds != benches {
		t.Errorf("InputBuilds = %d, want %d", cs.Artifacts.InputBuilds, benches)
	}
}

// TestSweepRunSharing checks the run cache: after Figure 6, Figure 11
// simulates only its 12 ASBR cells, since its baselines are Figure 6's
// cells, and the power table simulates nothing, since its baseline is
// the profiled run and its ASBR run is Figure 11's bi-512 cell.
func TestSweepRunSharing(t *testing.T) {
	for _, par := range []int{1, 8} {
		s := NewSweep(Options{Samples: 64, Seed: 1, Parallel: par})
		if _, err := s.Fig6(); err != nil {
			t.Fatal(err)
		}
		runs := s.CacheStats().Runs
		if _, err := s.Fig11(); err != nil {
			t.Fatal(err)
		}
		if got := s.CacheStats().Runs - runs; got != 12 {
			t.Errorf("parallel=%d: Fig11 after Fig6 made %d runs, want 12", par, got)
		}
		runs = s.CacheStats().Runs
		if _, err := s.PowerArea(); err != nil {
			t.Fatal(err)
		}
		if got := s.CacheStats().Runs - runs; got != 0 {
			t.Errorf("parallel=%d: PowerArea after Fig11 made %d runs, want 0", par, got)
		}
	}
}
