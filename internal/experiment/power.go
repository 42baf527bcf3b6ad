package experiment

import (
	"fmt"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/power"
	"asbr/internal/runner"
)

// PowerArea compares the baseline bimodal-2048 machine against the
// ASBR + bimodal-512 machine on energy activity (the activity-based
// model of package power) and branch-hardware area, for every
// benchmark: the paper's abstract and §6 claims, quantified. Each row
// is one pool job, and both runs of a benchmark are shared with the
// other tables of the sweep: the profiled run is the baseline, and the
// ASBR run is Figure 11's bi-512 cell. A failed row stays in the table
// with its error.
func (s *Sweep) PowerArea() ([]PowerJSON, error) {
	params := power.DefaultParams()
	type job struct {
		bench string
		asbr  bool
	}
	var jobs []job
	for _, bench := range s.opt.benches() {
		jobs = append(jobs, job{bench, false}, job{bench, true})
	}
	rows, errs := runner.MapErrs(s.opt.Parallel, jobs, func(_ int, j job) (PowerJSON, error) {
		if !j.asbr {
			pa, err := s.profiledRun(j.bench)
			if err != nil {
				return PowerJSON{}, err
			}
			return powerRow(params, j.bench, powerConfig(false), power.BaselineBimodal2048(), pa.res.Stats, nil), nil
		}
		r, err := s.asbrRun(j.bench, paperAux)
		if err != nil {
			return PowerJSON{}, fmt.Errorf("%s: %w", j.bench, err)
		}
		return powerRow(params, j.bench, powerConfig(true), power.ASBRBimodal(512, core.DefaultBITEntries), r.res.Stats, &r.fold), nil
	})
	return rows, annotate(rows, errs, func(i int, e *CellError) PowerJSON {
		return PowerJSON{Benchmark: jobs[i].bench, Config: powerConfig(jobs[i].asbr), Error: e}
	})
}

// powerConfig labels the power table's two machines.
func powerConfig(asbr bool) string {
	if asbr {
		return "ASBR + bimodal-512"
	}
	return "bimodal-2048 baseline"
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
