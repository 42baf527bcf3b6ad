package experiment

import (
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

// ThresholdRow is one row of the BDT-update-point ablation (paper
// §5.2: thresholds 2/3/4 via the EX/MEM/WB update points).
type ThresholdRow struct {
	Update    cpu.Stage
	Threshold int
	Cycles    uint64
	Folds     uint64
	Fallbacks uint64
}

// ThresholdAblation runs the update-point sweep on a fresh sweep
// context (see Sweep.ThresholdAblation).
func ThresholdAblation(bench string, opt Options) ([]ThresholdRow, error) {
	return NewSweep(opt).ThresholdAblation(bench)
}

// ThresholdAblation sweeps the three update points with a fixed
// selection (performed at the EX threshold), showing how fold coverage
// degrades as the predicate must be ready earlier.
func (s *Sweep) ThresholdAblation(bench string) ([]ThresholdRow, error) {
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
	return runner.Map(s.opt.Parallel, updates, func(_ int, up cpu.Stage) (ThresholdRow, error) {
		r, err := s.simulate(bench, pa.prog, predict.AuxBimodal512,
			&asbrUnit{cfg: core.DefaultConfig(), entries: entries, update: up})
		if err != nil {
			return ThresholdRow{}, err
		}
		return ThresholdRow{
			Update:    up,
			Threshold: map[cpu.Stage]int{cpu.StageEX: 2, cpu.StageMEM: 3, cpu.StageWB: 4}[up],
			Cycles:    r.res.Stats.Cycles,
			Folds:     r.fold.Folds,
			Fallbacks: r.fold.Fallbacks,
		}, nil
	})
}

// BITSizeRow is one row of the BIT-capacity sweep.
type BITSizeRow struct {
	Entries uint64
	K       int
	Cycles  uint64
	Folds   uint64
}

// BITSizeAblation runs the capacity sweep on a fresh sweep context
// (see Sweep.BITSizeAblation).
func BITSizeAblation(bench string, opt Options, sizes []int) ([]BITSizeRow, error) {
	return NewSweep(opt).BITSizeAblation(bench, sizes)
}

// BITSizeAblation sweeps the number of BIT entries, showing the
// diminishing returns that justify the paper's small 16-entry table.
func (s *Sweep) BITSizeAblation(bench string, sizes []int) ([]BITSizeRow, error) {
	pa, err := s.profiledRun(bench)
	if err != nil {
		return nil, err
	}
	return runner.Map(s.opt.Parallel, sizes, func(_ int, k int) (BITSizeRow, error) {
		cands, err := profile.Select(pa.prog, pa.prof, profile.SelectOptions{
			Aux: "bimodal-512", MinDistance: s.opt.MinDistance(), K: k,
			MinCount: uint64(s.opt.Samples / 16),
		})
		if err != nil {
			return BITSizeRow{}, err
		}
		entries, err := profile.BuildBITFromCandidates(pa.prog, cands)
		if err != nil {
			return BITSizeRow{}, err
		}
		cfg := core.DefaultConfig()
		cfg.BITEntries = maxInt(k, 1)
		r, err := s.simulate(bench, pa.prog, predict.AuxBimodal512,
			&asbrUnit{cfg: cfg, entries: entries, update: s.opt.Update})
		if err != nil {
			return BITSizeRow{}, err
		}
		return BITSizeRow{
			Entries: uint64(k),
			K:       len(cands),
			Cycles:  r.res.Stats.Cycles,
			Folds:   r.fold.Folds,
		}, nil
	})
}

// SchedulingRow is one row of the §5.1 scheduling ablation. Baseline
// and Improvement are measured against the same binary without ASBR,
// so the source-level overhead of manual scheduling does not pollute
// the comparison.
type SchedulingRow struct {
	Label       string
	Cycles      uint64
	Baseline    uint64
	Improvement float64
	Folds       uint64
	Candidates  int
}

// SchedulingAblation runs the scheduling comparison on a fresh sweep
// context (see Sweep.SchedulingAblation).
func SchedulingAblation(bench string, opt Options) ([]SchedulingRow, error) {
	return NewSweep(opt).SchedulingAblation(bench)
}

// SchedulingAblation compares no scheduling, compiler-pass-only,
// manual-source-only, and both — quantifying the paper's claim that
// scheduling "can boost significantly the effectiveness of the
// approach". Each variant compiles its own binary (cached in the
// artifact store) and profiles it independently.
func (s *Sweep) SchedulingAblation(bench string) ([]SchedulingRow, error) {
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
	}) (SchedulingRow, error) {
		prog, err := s.arts.Program(bench, v.bopt)
		if err != nil {
			return SchedulingRow{}, err
		}
		in, err := s.input(bench)
		if err != nil {
			return SchedulingRow{}, err
		}
		prof := profile.New(predict.Must(predict.NewBimodal(512)))
		cfg := s.machine(predict.BaselineBimodal())
		cfg.Observer = prof
		baseRes, err := s.run(prog, cfg, in)
		if err != nil {
			return SchedulingRow{}, err
		}
		cands, err := profile.Select(prog, prof, profile.SelectOptions{
			Aux: "bimodal-512", MinDistance: s.opt.MinDistance(), K: BITSizes()[bench],
			MinCount: uint64(s.opt.Samples / 16),
		})
		if err != nil {
			return SchedulingRow{}, err
		}
		entries, err := profile.BuildBITFromCandidates(prog, cands)
		if err != nil {
			return SchedulingRow{}, err
		}
		r, err := s.simulate(bench, prog, predict.AuxBimodal512,
			&asbrUnit{cfg: core.DefaultConfig(), entries: entries, update: s.opt.Update})
		if err != nil {
			return SchedulingRow{}, err
		}
		return SchedulingRow{
			Label:       v.label,
			Cycles:      r.res.Stats.Cycles,
			Baseline:    baseRes.Stats.Cycles,
			Improvement: 1 - float64(r.res.Stats.Cycles)/float64(baseRes.Stats.Cycles),
			Folds:       r.fold.Folds,
			Candidates:  len(cands),
		}, nil
	})
}

// ValidityRow is one row of the validity-counter ablation.
type ValidityRow struct {
	Label         string
	Cycles        uint64
	Folds         uint64
	Fallbacks     uint64
	OutputCorrect bool
}

// ValidityAblation runs the safe-vs-unsafe comparison on a fresh sweep
// context (see Sweep.ValidityAblation).
func ValidityAblation(bench string, opt Options) ([]ValidityRow, error) {
	return NewSweep(opt).ValidityAblation(bench)
}

// ValidityAblation compares the safe engine (validity counters, paper
// §4) against the unsafe upper bound (fold on every BIT hit with the
// latest delivered value). The unsafe run measures maximum coverage
// and demonstrates why the counters are architecturally necessary:
// its output is checked against the golden model.
func (s *Sweep) ValidityAblation(bench string) ([]ValidityRow, error) {
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
	}) (ValidityRow, error) {
		cfg := core.DefaultConfig()
		cfg.TrackValidity = mode.track
		r, err := s.simulate(bench, pa.prog, predict.AuxBimodal512,
			&asbrUnit{cfg: cfg, entries: entries, update: s.opt.Update})
		if err != nil {
			return ValidityRow{}, err
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
		return ValidityRow{
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
