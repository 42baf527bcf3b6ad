package experiment

import (
	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/power"
	"asbr/internal/predict"
	"asbr/internal/runner"
)

// PowerArea compares the baseline bimodal-2048 machine against the
// ASBR + bimodal-512 machine on energy activity (the activity-based
// model of package power) and branch-hardware area, for every
// benchmark: the paper's abstract and §6 claims, quantified. Each
// benchmark is one pool job; both its runs are shared with the other
// tables of the sweep: the profiled run is the baseline, and the ASBR
// run is Figure 11's bi-512 cell.
func (s *Sweep) PowerArea() ([]PowerJSON, error) {
	params := power.DefaultParams()
	pairs, err := runner.Map(s.opt.Parallel, s.opt.benches(), func(_ int, bench string) ([2]PowerJSON, error) {
		pa, err := s.profiledRun(bench)
		if err != nil {
			return [2]PowerJSON{}, err
		}
		entries, err := s.bitEntries(bench)
		if err != nil {
			return [2]PowerJSON{}, err
		}
		r, err := s.simulate(bench, pa.prog, predict.AuxBimodal512,
			&asbrUnit{cfg: core.DefaultConfig(), entries: entries, update: s.opt.Update})
		if err != nil {
			return [2]PowerJSON{}, err
		}
		return [2]PowerJSON{
			powerRow(params, bench, "bimodal-2048 baseline", power.BaselineBimodal2048(), pa.res.Stats, nil),
			powerRow(params, bench, "ASBR + bimodal-512", power.ASBRBimodal(512, core.DefaultBITEntries), r.res.Stats, &r.fold),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]PowerJSON, 0, 2*len(pairs))
	for _, pair := range pairs {
		rows = append(rows, pair[0], pair[1])
	}
	return rows, nil
}

// powerRow prices one run of bench on hardware hw (eng: the ASBR
// unit's counters, nil without one).
func powerRow(p power.Params, bench, config string, hw power.Hardware, st cpu.Stats, eng *core.Stats) PowerJSON {
	e := power.Estimate(p, hw, st, eng)
	return PowerJSON{
		Benchmark:    bench,
		Config:       config,
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
		WrongPath:    st.WrongPath,
		Energy: EnergyJSON{
			Pipeline: e.Pipeline, WrongPath: e.WrongPath,
			Predictor: e.Predictor, BTB: e.BTB,
			BIT: e.BIT, BDT: e.BDT, Caches: e.Caches,
			Total: e.Total(),
		},
		AreaBits: hw.AreaBits(),
	}
}
