package experiment

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/workload"
)

// sweepSnapshot is every table a full sweep produces, for deep
// comparison across worker counts.
type sweepSnapshot struct {
	Fig6      []Fig6JSON
	Fig11     []Fig11JSON
	Branches  *BranchTableJSON
	Threshold []ThresholdJSON
	BITSize   []BITSizeJSON
	Sched     []SchedulingJSON
	Validity  []ValidityJSON
	Power     []PowerJSON
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
	if snap.Branches, err = s.SelectedBranches(TableFig9, workload.ADPCMEncode); err != nil {
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
// cells, and neither the power table nor the predictability table
// simulates anything, since they read Figure 11's bi-512 cell. Run
// first, the predictability table simulates that cell for each
// benchmark, and Figure 11 then simulates only its other 8.
func TestSweepRunSharing(t *testing.T) {
	for _, par := range []int{1, 8} {
		s := NewSweep(Options{Samples: 64, Seed: 1, Parallel: par})
		step := func(name string, table func() error, want uint64) {
			t.Helper()
			runs := s.CacheStats().Runs
			if err := table(); err != nil {
				t.Fatal(err)
			}
			if got := s.CacheStats().Runs - runs; got != want {
				t.Errorf("parallel=%d: %s made %d runs, want %d", par, name, got, want)
			}
		}
		fig6 := func() error { _, err := s.Fig6(); return err }
		fig11 := func() error { _, err := s.Fig11(); return err }
		powerArea := func() error { _, err := s.PowerArea(); return err }
		predictability := func() error { _, err := s.Predictability(); return err }

		if err := fig6(); err != nil {
			t.Fatal(err)
		}
		step("Fig11 after Fig6", fig11, 12)
		step("PowerArea after Fig11", powerArea, 0)
		step("Predictability after Fig11", predictability, 0)

		s = NewSweep(Options{Samples: 64, Seed: 1, Parallel: par})
		if err := fig6(); err != nil {
			t.Fatal(err)
		}
		step("Predictability after Fig6", predictability, 4)
		step("Fig11 after Predictability", fig11, 8)
	}
}

// newAccounting returns a branch-accounting observer over a fresh
// predictability shadow zoo.
func newAccounting(t *testing.T) *obs.BranchAccounting {
	t.Helper()
	var shadows []obs.ShadowPredictor
	for _, sp := range predictabilityShadows() {
		spec, err := predict.ParseSpec(sp.Spec)
		if err != nil {
			t.Fatal(err)
		}
		u, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		shadows = append(shadows, u.Dir)
	}
	return obs.NewBranchAccounting(uint64(2+ExtraMispredictCycles), shadows...)
}

// TestBranchLogReplay requires the recorded branch stream of the
// paper's ASBR machine, replayed, to give the account that a live
// observer on that machine builds, at two update points on every
// benchmark. The log must hold one call per resolved or folded branch
// of the run without outgrowing the capacity it was made with.
func TestBranchLogReplay(t *testing.T) {
	for _, up := range []cpu.Stage{cpu.StageMEM, cpu.StageEX} {
		s := NewSweep(Options{Samples: 64, Seed: 1, Update: up})
		for _, bench := range workload.Names() {
			pa, err := s.profiledRun(bench)
			if err != nil {
				t.Fatal(err)
			}
			entries, err := s.bitEntries(bench)
			if err != nil {
				t.Fatal(err)
			}
			in, err := s.input(bench)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.NewEngine(core.DefaultConfig())
			if err := eng.Load(entries); err != nil {
				t.Fatal(err)
			}
			live := newAccounting(t)
			cfg := s.machine(predict.AuxBimodal512())
			cfg.Fold, cfg.BDTUpdate, cfg.Observer = eng, up, live
			if _, err := s.run(pa.prog, cfg, in); err != nil {
				t.Fatal(err)
			}

			r, err := s.asbrRun(bench, predict.AuxBimodal512)
			if err != nil {
				t.Fatal(err)
			}
			n := int(pa.prof.TotalBranches())
			if want := r.res.Stats.DynamicCondBranches(); uint64(len(r.branches)) != want || cap(r.branches) != n+n/16 {
				t.Errorf("update %s, %s: log holds %d calls in capacity %d, want %d in %d", up, bench, len(r.branches), cap(r.branches), want, n+n/16)
			}
			replayed := newAccounting(t)
			r.branches.replay(replayed)
			if got, want := replayed.Stats(), live.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("update %s, %s: replayed account differs from the live one:\n got  %+v\n want %+v", up, bench, got, want)
			}
		}
	}
}

// TestSweepTableOrder requires the tables that read the paper's ASBR
// machine to come out the same whichever of them reaches it first, at
// two update points. The scheduling ablation's compiler-pass run of
// ADPCM encode is that machine, so after the ablations Figure 11 and
// the predictability table read a run the ablation made.
func TestSweepTableOrder(t *testing.T) {
	s := NewSweep(Options{Samples: 64, Seed: 1})
	if _, err := s.SchedulingAblation(workload.ADPCMEncode); err != nil {
		t.Fatal(err)
	}
	runs := s.CacheStats().Runs
	if _, err := s.asbrRun(workload.ADPCMEncode, predict.AuxBimodal512); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Runs - runs; got != 0 {
		t.Fatalf("the paper's ADPCM encode machine made %d runs after the scheduling ablation, want 0", got)
	}

	for _, up := range []cpu.Stage{cpu.StageMEM, cpu.StageEX} {
		tables := func(order ...string) map[string]string {
			s := NewSweep(Options{Samples: 64, Seed: 1, Update: up})
			out := make(map[string]string, len(order))
			for _, name := range order {
				tabs, err := s.Tables([]string{name})
				if err != nil {
					t.Fatalf("update %s, order %v: %s: %v", up, order, name, err)
				}
				b, err := json.Marshal(tabs)
				if err != nil {
					t.Fatal(err)
				}
				out[name] = string(b)
			}
			return out
		}
		want := tables(TableFig11, TablePower, TableAblations, TablePredictability)
		for _, order := range [][]string{
			{TableAblations, TableFig11, TablePredictability, TablePower},
			{TablePredictability, TablePower, TableAblations, TableFig11},
		} {
			got := tables(order...)
			for name, w := range want {
				if got[name] != w {
					t.Errorf("update %s, order %v: table %s differs from the canonical order's:\n got  %s\n want %s", up, order, name, got[name], w)
				}
			}
		}
	}
}

// TestSharedRunError fails the paper's ASBR run on the watchdog and
// requires its one error on each table that reads it: Figure 11's
// bi-512 cell, the power table's ASBR row and the predictability row.
func TestSharedRunError(t *testing.T) {
	bench := workload.ADPCMEncode
	s := NewSweep(Options{Samples: 64, Seed: 1, Benches: []string{bench}})
	// Profile and select under the default budget, then shrink it, so
	// that only the runs made from here on exceed it.
	if _, err := s.bitEntries(bench); err != nil {
		t.Fatal(err)
	}
	s.opt.MaxCycles = 1000
	_, want := s.asbrRun(bench, predict.AuxBimodal512)
	if cpu.CodeOf(want) != cpu.ErrCycleLimit {
		t.Fatalf("shared run: %v, want a cycle-limit error", want)
	}
	runs := s.CacheStats().Runs
	check := func(cell string, e *CellError) {
		t.Helper()
		if e == nil || e.Code != cpu.ErrCycleLimit.String() || !strings.HasSuffix(e.Message, want.Error()) {
			t.Errorf("%s: error %+v, want the shared run's %q", cell, e, want)
		}
	}

	fig11, _ := s.Fig11()
	for _, r := range fig11 {
		if r.Aux == "bi-512" {
			check("fig11 bi-512", r.Error)
		}
	}
	rows, _ := s.PowerArea()
	if len(rows) != 2 || rows[0].Error != nil {
		t.Fatalf("power rows %+v: want a healthy baseline row and the ASBR row", rows)
	}
	check("power "+rows[1].Config, rows[1].Error)
	pred, _ := s.Predictability()
	check("predictability", pred[0].Error)
	// Figure 11's not-taken baseline and bi-256 cell are new runs; the
	// bi-512 cell, the power row and the predictability row are not.
	if got := s.CacheStats().Runs - runs; got != 2 {
		t.Errorf("the three tables made %d runs, want 2", got)
	}
}
