package experiment

import (
	"cmp"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/runner"
	"asbr/internal/workload"
)

// Ablation studies for the design choices DESIGN.md calls out. All use
// the G.721 encoder unless stated otherwise (the paper's largest
// selected-branch set), on the same platform as the main experiments.
// Each sweep point is one pool job; the profiled run and input trace
// are shared artifacts, and each ASBR run goes through the sweep's run
// cache, so a point that repeats another table's machine is not
// simulated again.

// defaultBITSweepSizes is the capacity axis of the BIT-size ablation.
var defaultBITSweepSizes = []int{1, 2, 4, 8, 16, 32}

// ablations runs the four ablation studies on their canonical
// benchmarks. A partial failure still returns the studies that ran,
// with the first error.
func (s *Sweep) ablations() (*AblationsJSON, error) {
	out := &AblationsJSON{
		ThresholdBench:  workload.G721Encode,
		BITSizeBench:    workload.G721Encode,
		SchedulingBench: workload.ADPCMEncode,
		ValidityBench:   workload.ADPCMEncode,
	}
	var errs [4]error
	out.Threshold, errs[0] = s.ThresholdAblation(out.ThresholdBench)
	out.BITSize, errs[1] = s.BITSizeAblation(out.BITSizeBench, defaultBITSweepSizes)
	out.Scheduling, errs[2] = s.SchedulingAblation(out.SchedulingBench)
	out.Validity, errs[3] = s.ValidityAblation(out.ValidityBench)
	return out, cmp.Or(errs[:]...)
}

// ThresholdAblation sweeps the three BDT update points (paper §5.2:
// thresholds 2/3/4 via EX/MEM/WB) with a fixed selection (performed at
// the EX threshold), showing how fold coverage degrades as the
// predicate must be ready earlier.
func (s *Sweep) ThresholdAblation(bench string) ([]ThresholdJSON, error) {
	pa, err := s.profiledRun(bench)
	if err != nil {
		return nil, err
	}
	selOpt := s.opt
	selOpt.Update = cpu.StageEX
	cands, err := selectBranches(bench, pa.prog, pa.prof, selOpt)
	if err != nil {
		return nil, err
	}
	entries, err := profile.BuildBITFromCandidates(pa.prog, cands)
	if err != nil {
		return nil, err
	}
	updates := []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB}
	return runner.Map(s.opt.Parallel, updates, func(_ int, up cpu.Stage) (ThresholdJSON, error) {
		r, err := s.simulate(bench, pa.prog, paperAux,
			&asbrUnit{cfg: core.DefaultConfig(), entries: entries, update: up})
		if err != nil {
			return ThresholdJSON{}, err
		}
		return ThresholdJSON{
			Update:    up.String(),
			Threshold: map[cpu.Stage]int{cpu.StageEX: 2, cpu.StageMEM: 3, cpu.StageWB: 4}[up],
			Cycles:    r.res.Stats.Cycles,
			Folds:     r.fold.Folds,
			Fallbacks: r.fold.Fallbacks,
		}, nil
	})
}

// BITSizeAblation sweeps the number of BIT entries, showing the
// diminishing returns that justify the paper's small 16-entry table.
func (s *Sweep) BITSizeAblation(bench string, sizes []int) ([]BITSizeJSON, error) {
	pa, err := s.profiledRun(bench)
	if err != nil {
		return nil, err
	}
	return runner.Map(s.opt.Parallel, sizes, func(_ int, k int) (BITSizeJSON, error) {
		cands, err := profile.Select(pa.prog, pa.prof, profile.SelectOptions{
			Aux: "bimodal-512", MinDistance: s.opt.MinDistance(), K: k,
			MinCount: uint64(s.opt.Samples / 16),
		})
		if err != nil {
			return BITSizeJSON{}, err
		}
		entries, err := profile.BuildBITFromCandidates(pa.prog, cands)
		if err != nil {
			return BITSizeJSON{}, err
		}
		cfg := core.DefaultConfig()
		cfg.BITEntries = maxInt(k, 1)
		r, err := s.simulate(bench, pa.prog, paperAux,
			&asbrUnit{cfg: cfg, entries: entries, update: s.opt.Update})
		if err != nil {
			return BITSizeJSON{}, err
		}
		return BITSizeJSON{
			Entries: uint64(k),
			K:       len(cands),
			Cycles:  r.res.Stats.Cycles,
			Folds:   r.fold.Folds,
		}, nil
	})
}

// SchedulingAblation compares no scheduling, compiler-pass-only,
// manual-source-only, and both — quantifying the paper's claim that
// scheduling "can boost significantly the effectiveness of the
// approach". Each variant compiles its own binary (cached in the
// artifact store) and profiles it independently. A row's Baseline and
// Improvement are measured against the same binary without ASBR, so
// the source-level overhead of manual scheduling does not pollute the
// comparison.
func (s *Sweep) SchedulingAblation(bench string) ([]SchedulingJSON, error) {
	variants := []struct {
		label string
		bopt  workload.BuildOptions
	}{
		{"none", workload.BuildOptions{}},
		{"compiler pass", workload.BuildOptions{CompilerSchedule: true}},
		{"manual source", workload.BuildOptions{ManualSchedule: true}},
		{"manual+compiler", workload.BuildOptions{ManualSchedule: true, CompilerSchedule: true}},
	}
	return runner.Map(s.opt.Parallel, variants, func(_ int, v struct {
		label string
		bopt  workload.BuildOptions
	}) (SchedulingJSON, error) {
		prog, err := s.arts.Program(bench, v.bopt)
		if err != nil {
			return SchedulingJSON{}, err
		}
		in, err := s.input(bench)
		if err != nil {
			return SchedulingJSON{}, err
		}
		prof := profile.New(predict.Must(predict.NewBimodal(512)))
		cfg := s.machine(predict.BaselineBimodal())
		cfg.Observer = prof
		baseRes, err := s.run(prog, cfg, in)
		if err != nil {
			return SchedulingJSON{}, err
		}
		cands, err := profile.Select(prog, prof, profile.SelectOptions{
			Aux: "bimodal-512", MinDistance: s.opt.MinDistance(), K: BITSizes()[bench],
			MinCount: uint64(s.opt.Samples / 16),
		})
		if err != nil {
			return SchedulingJSON{}, err
		}
		entries, err := profile.BuildBITFromCandidates(prog, cands)
		if err != nil {
			return SchedulingJSON{}, err
		}
		r, err := s.simulate(bench, prog, paperAux,
			&asbrUnit{cfg: core.DefaultConfig(), entries: entries, update: s.opt.Update})
		if err != nil {
			return SchedulingJSON{}, err
		}
		return SchedulingJSON{
			Label:       v.label,
			Cycles:      r.res.Stats.Cycles,
			Baseline:    baseRes.Stats.Cycles,
			Improvement: 1 - float64(r.res.Stats.Cycles)/float64(baseRes.Stats.Cycles),
			Folds:       r.fold.Folds,
			Candidates:  len(cands),
		}, nil
	})
}

// ValidityAblation compares the safe engine (validity counters, paper
// §4) against the unsafe upper bound (fold on every BIT hit with the
// latest delivered value). The unsafe run measures maximum coverage
// and demonstrates why the counters are architecturally necessary:
// its output is checked against the golden model.
func (s *Sweep) ValidityAblation(bench string) ([]ValidityJSON, error) {
	pa, err := s.profiledRun(bench)
	if err != nil {
		return nil, err
	}
	want, err := s.arts.Expected(bench, s.opt.Samples, s.opt.Seed)
	if err != nil {
		return nil, err
	}
	// Select with no distance filter: the BIT deliberately includes
	// stale-prone branches so the safe engine's fallbacks (and the
	// unsafe engine's wrong folds) become visible.
	cands, err := profile.Select(pa.prog, pa.prof, profile.SelectOptions{
		Aux: "bimodal-512", MinDistance: 0, K: BITSizes()[bench],
		MinCount: uint64(s.opt.Samples / 16),
	})
	if err != nil {
		return nil, err
	}
	entries, err := profile.BuildBITFromCandidates(pa.prog, cands)
	if err != nil {
		return nil, err
	}
	modes := []struct {
		label string
		track bool
	}{{"validity counters (safe)", true}, {"no counters (unsafe bound)", false}}
	return runner.Map(s.opt.Parallel, modes, func(_ int, mode struct {
		label string
		track bool
	}) (ValidityJSON, error) {
		cfg := core.DefaultConfig()
		cfg.TrackValidity = mode.track
		r, err := s.simulate(bench, pa.prog, paperAux,
			&asbrUnit{cfg: cfg, entries: entries, update: s.opt.Update})
		if err != nil {
			return ValidityJSON{}, err
		}
		res := r.res
		correct := len(res.Output) == len(want)
		if correct {
			for i := range want {
				if res.Output[i] != want[i] {
					correct = false
					break
				}
			}
		}
		return ValidityJSON{
			Label:         mode.label,
			Cycles:        res.Stats.Cycles,
			Folds:         r.fold.Folds,
			Fallbacks:     r.fold.Fallbacks,
			OutputCorrect: correct,
		}, nil
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
