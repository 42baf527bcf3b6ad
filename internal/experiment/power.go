package experiment

import (
	"asbr/internal/core"
	"asbr/internal/power"
	"asbr/internal/predict"
	"asbr/internal/runner"
)

// PowerRow is one row of the power/area comparison: the paper's
// abstract and §6 claims, quantified with the activity-based model of
// package power.
type PowerRow struct {
	Benchmark    string
	Config       string
	Cycles       uint64
	Instructions uint64
	WrongPath    uint64
	Energy       power.Report
	AreaBits     int
}

// PowerArea runs the power/area comparison on a fresh sweep context
// (see Sweep.PowerArea).
func PowerArea(opt Options) ([]PowerRow, error) {
	return NewSweep(opt).PowerArea()
}

// PowerArea compares the baseline bimodal-2048 machine against the
// ASBR + bimodal-512 machine on energy activity and branch-hardware
// area, for every benchmark. Each benchmark is one pool job; both its
// runs are shared with the other tables of the sweep: the profiled
// run is the baseline, and the ASBR run is Figure 11's bi-512 cell.
func (s *Sweep) PowerArea() ([]PowerRow, error) {
	params := power.DefaultParams()
	pairs, err := runner.Map(s.opt.Parallel, s.opt.benches(), func(_ int, bench string) ([2]PowerRow, error) {
		pa, err := s.profiledRun(bench)
		if err != nil {
			return [2]PowerRow{}, err
		}
		baseHW := power.BaselineBimodal2048()
		baseRow := PowerRow{
			Benchmark:    bench,
			Config:       "bimodal-2048 baseline",
			Cycles:       pa.res.Stats.Cycles,
			Instructions: pa.res.Stats.Instructions,
			WrongPath:    pa.res.Stats.WrongPath,
			Energy:       power.Estimate(params, baseHW, pa.res.Stats, nil),
			AreaBits:     baseHW.AreaBits(),
		}
		entries, err := s.bitEntries(bench)
		if err != nil {
			return [2]PowerRow{}, err
		}
		r, err := s.simulate(bench, pa.prog, predict.AuxBimodal512,
			&asbrUnit{cfg: core.DefaultConfig(), entries: entries, update: s.opt.Update})
		if err != nil {
			return [2]PowerRow{}, err
		}
		res, es := r.res, r.fold
		asbrHW := power.ASBRBimodal(512, core.DefaultBITEntries)
		asbrRow := PowerRow{
			Benchmark:    bench,
			Config:       "ASBR + bimodal-512",
			Cycles:       res.Stats.Cycles,
			Instructions: res.Stats.Instructions,
			WrongPath:    res.Stats.WrongPath,
			Energy:       power.Estimate(params, asbrHW, res.Stats, &es),
			AreaBits:     asbrHW.AreaBits(),
		}
		return [2]PowerRow{baseRow, asbrRow}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PowerRow, 0, 2*len(pairs))
	for _, pair := range pairs {
		rows = append(rows, pair[0], pair[1])
	}
	return rows, nil
}
