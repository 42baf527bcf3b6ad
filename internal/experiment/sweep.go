package experiment

import (
	"context"
	"encoding/binary"
	"fmt"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/runner"
	"asbr/internal/workload"
)

// Sweep is a reusable experiment context. All table generators hang
// off it and share its artifact caches: compiled benchmarks, synthetic
// traces, profiled runs, BIT selections and the run of each distinct
// hookless machine are each built exactly once per sweep, no matter
// how many table rows consume them. Independent (benchmark ×
// predictor × ASBR-config) simulation jobs fan out over a bounded
// worker pool (runner.Map) with Options.Parallel workers; each job
// owns its CPU, caches, predictor unit and ASBR engine, and results
// aggregate in input order, so every table is byte-identical to the
// serial run regardless of worker count.
type Sweep struct {
	opt  Options
	arts runner.Artifacts

	profiled  runner.Cache[string, *profiledArtifact]
	selection runner.Cache[string, []core.BITEntry]
	faultSel  runner.Cache[string, []core.BITEntry]
	baseline  runner.Cache[baselineKey, *workload.Result]
	runs      runner.Cache[runKey, *simRun]
	motivProg runner.Cache[string, *isa.Program]
}

// profiledArtifact bundles the outputs of one profiled baseline run:
// the compiled program, the branch profiler (read-only after the run
// completes) and the run result. Concurrent jobs share it read-only.
type profiledArtifact struct {
	prog *isa.Program
	prof *profile.Profiler
	res  *workload.Result
}

type baselineKey struct {
	bench string
	unit  string
}

// Baseline unit names accepted by baselineRun.
const (
	baselineUnitNotTaken = "not taken"
	baselineUnitBimodal  = "bimodal-2048"
)

// NewSweep builds a sweep context for the given options. One Sweep
// can serve any number of table generators; a full asbr-tables run
// compiles and profiles each benchmark exactly once through it.
func NewSweep(opt Options) *Sweep {
	opt.fill()
	return &Sweep{opt: opt}
}

// Options returns the sweep's filled options.
func (s *Sweep) Options() Options { return s.opt }

// Artifacts exposes the workload artifact store (for tests and cache
// introspection).
func (s *Sweep) Artifacts() *runner.Artifacts { return &s.arts }

// program returns the benchmark built with the paper's §8 scheduling
// methodology, compiled at most once per sweep.
func (s *Sweep) program(bench string) (*isa.Program, error) {
	return s.arts.ScheduledProgram(bench)
}

// machine assembles the platform config around a branch unit with the
// sweep's watchdog budget applied.
func (s *Sweep) machine(branch *predict.Unit) cpu.Config {
	cfg := machine(branch)
	cfg.MaxCycles = s.opt.MaxCycles
	return cfg
}

// run executes one simulation job under the sweep's watchdog: the
// cycle budget rides in cfg (via s.machine) and the wall-clock budget
// is enforced through context cancellation. A runaway guest degrades
// into a typed *cpu.SimError for its cell instead of hanging the
// sweep.
func (s *Sweep) run(prog *isa.Program, cfg cpu.Config, in []int32) (*workload.Result, error) {
	ctx := context.Background()
	if s.opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.Timeout)
		defer cancel()
	}
	if cfg.Predecoded == nil {
		// Every cell simulating the same compiled artifact shares one
		// immutable decode table instead of predecoding per machine.
		cfg.Predecoded = s.arts.Predecode(prog)
	}
	return workload.RunContext(ctx, prog, cfg, in, s.opt.Samples)
}

// input returns the benchmark's synthetic input trace for the sweep's
// sample count and seed, generated at most once.
func (s *Sweep) input(bench string) ([]int32, error) {
	return s.arts.Input(bench, s.opt.Samples, s.opt.Seed)
}

// profiledRun builds the benchmark, runs it once on the baseline
// bimodal machine with a profiler attached, and caches program,
// profiler and run result: every consumer of the profile shares one
// run instead of re-profiling per row.
func (s *Sweep) profiledRun(bench string) (*profiledArtifact, error) {
	return s.profiled.Get(bench, func() (*profiledArtifact, error) {
		prog, err := s.program(bench)
		if err != nil {
			return nil, err
		}
		in, err := s.input(bench)
		if err != nil {
			return nil, err
		}
		prof := profile.New(
			predict.NotTaken{},
			predict.Must(predict.NewBimodal(2048)),
			predict.Must(predict.NewGShare(11, 2048)),
			predict.Must(predict.NewBimodal(512)),
			predict.Must(predict.NewBimodal(256)),
		)
		cfg := s.machine(predict.BaselineBimodal())
		cfg.Observer = prof
		res, err := s.run(prog, cfg, in)
		if err != nil {
			return nil, err
		}
		return &profiledArtifact{prog: prog, prof: prof, res: res}, nil
	})
}

// SelectOptionsFor returns the §6 selection options for a one-off
// ASBR run outside a sweep: BIT capacity k, and — when the run has a
// meaningful input-trace length — the sample-scaled profitability
// thresholds. The serving layer and the corpus replay harness both
// build their engines through this helper, so a served job and its
// cold replay can never select branches differently.
func SelectOptionsFor(k, samples int) profile.SelectOptions {
	opt := profile.SelectOptions{Aux: "bimodal-512", MinDistance: 3, K: k}
	if samples > 0 {
		opt.MinCount = uint64(samples / 16)
		opt.Penalty = 2 + ExtraMispredictCycles // the platform's flush cost
	}
	return opt
}

// selectBranches runs the paper's §6 selection for a benchmark: the
// shared one-off options with the sweep's update-point-derived
// distance threshold.
func selectBranches(bench string, prog *isa.Program, prof *profile.Profiler, opt Options) ([]profile.Candidate, error) {
	o := SelectOptionsFor(BITSizes()[bench], opt.Samples)
	o.MinDistance = opt.MinDistance()
	return profile.Select(prog, prof, o)
}

// bitEntries returns the benchmark's selected, pre-decoded BIT rows
// under the sweep's options — shared by the Figure 11 rows and the
// power table.
func (s *Sweep) bitEntries(bench string) ([]core.BITEntry, error) {
	return s.selection.Get(bench, func() ([]core.BITEntry, error) {
		pa, err := s.profiledRun(bench)
		if err != nil {
			return nil, err
		}
		cands, err := selectBranches(bench, pa.prog, pa.prof, s.opt)
		if err != nil {
			return nil, err
		}
		return profile.BuildBITFromCandidates(pa.prog, cands)
	})
}

// baselineRun returns the benchmark's comparison-base run for the
// named baseline unit, looked up at most once per (bench, unit). The
// bimodal-2048 machine is the profiled run's: a profiler never changes
// a counter.
func (s *Sweep) baselineRun(bench, unit string) (*workload.Result, error) {
	return s.baseline.Get(baselineKey{bench: bench, unit: unit}, func() (*workload.Result, error) {
		switch unit {
		case baselineUnitNotTaken:
			return s.plainRun(bench, predict.BaselineNotTaken)
		case baselineUnitBimodal:
			pa, err := s.profiledRun(bench)
			if err != nil {
				return nil, err
			}
			return pa.res, nil
		default:
			return nil, fmt.Errorf("experiment: unknown baseline unit %q", unit)
		}
	})
}

// asbrUnit describes a machine's ASBR unit: the engine configuration
// with its defaults filled in (so equal units compare equal), the BIT
// entries it loads and the BDT update point.
type asbrUnit struct {
	cfg     core.Config
	entries []core.BITEntry
	update  cpu.Stage
}

// runKey identifies one hookless simulation of a sweep: the program,
// the benchmark (which picks the input trace), the branch unit's name
// and the ASBR unit, whose fields stay zero on a machine without one.
type runKey struct {
	prog   *isa.Program
	bench  string
	unit   string
	cfg    core.Config
	bit    string // the BIT entries, in load order (bitKey)
	update cpu.Stage
}

// bitKey encodes BIT entries as a comparable key: every field of every
// entry, in order.
func bitKey(entries []core.BITEntry) string {
	b := make([]byte, 0, 18*len(entries))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, e.PC)
		b = binary.LittleEndian.AppendUint32(b, e.BTA)
		b = binary.LittleEndian.AppendUint32(b, e.BTI)
		b = binary.LittleEndian.AppendUint32(b, e.BFI)
		b = append(b, byte(e.Reg), byte(e.Cond))
	}
	return string(b)
}

// simRun is one simulation of the run cache: its result and, on a
// machine with an ASBR unit, the unit's counters. Consumers share it
// read-only.
type simRun struct {
	res  *workload.Result
	fold core.Stats
}

// simulate returns the benchmark's run of prog on the machine built
// from mk's branch unit and, when asbr is non-nil, an ASBR unit,
// simulating each distinct machine at most once per sweep. It builds
// the cpu.Config itself, so no caller can attach a profiler, an
// observer, a mutation policy or a commit tap to a shared run; runs
// that need one of those call s.run directly.
func (s *Sweep) simulate(bench string, prog *isa.Program, mk func() *predict.Unit, asbr *asbrUnit) (*simRun, error) {
	unit := mk()
	key := runKey{prog: prog, bench: bench, unit: unit.Name()}
	if asbr != nil {
		key.cfg, key.bit, key.update = asbr.cfg, bitKey(asbr.entries), asbr.update
	}
	return s.runs.Get(key, func() (*simRun, error) {
		in, err := s.input(bench)
		if err != nil {
			return nil, err
		}
		cfg := s.machine(unit)
		var eng *core.Engine
		if asbr != nil {
			eng = core.NewEngine(asbr.cfg)
			if err := eng.Load(asbr.entries); err != nil {
				return nil, err
			}
			cfg.Fold = eng
			cfg.BDTUpdate = asbr.update
		}
		res, err := s.run(prog, cfg, in)
		if err != nil {
			return nil, err
		}
		r := &simRun{res: res}
		if eng != nil {
			r.fold = eng.Stats()
		}
		return r, nil
	})
}

// plainRun returns the benchmark's run on its §8 program with mk's
// branch unit and no ASBR unit, through the run cache.
func (s *Sweep) plainRun(bench string, mk func() *predict.Unit) (*workload.Result, error) {
	prog, err := s.program(bench)
	if err != nil {
		return nil, err
	}
	r, err := s.simulate(bench, prog, mk, nil)
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

// CacheStats summarizes sweep-level artifact reuse: how many expensive
// artifacts were actually built versus requested.
type CacheStats struct {
	Artifacts    runner.Stats
	ProfiledRuns uint64
	Selections   uint64
	BaselineRuns uint64
	Runs         uint64 // simulations the run cache performed
}

// CacheStats returns the sweep's artifact-cache counters.
func (s *Sweep) CacheStats() CacheStats {
	return CacheStats{
		Artifacts:    s.arts.Stats(),
		ProfiledRuns: s.profiled.Builds(),
		Selections:   s.selection.Builds(),
		BaselineRuns: s.baseline.Builds(),
		Runs:         s.runs.Builds(),
	}
}
