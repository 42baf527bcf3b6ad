package experiment

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

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
	ctx, cancel := s.simContext()
	defer cancel()
	if cfg.Predecoded == nil {
		// Every cell simulating the same compiled artifact shares one
		// immutable decode table instead of predecoding per machine.
		cfg.Predecoded = s.arts.Predecode(prog)
	}
	return workload.RunContext(ctx, prog, cfg, in, s.opt.Samples)
}

// simContext bounds one simulation by the sweep's wall-clock budget
// (Options.Timeout); without one it never expires.
func (s *Sweep) simContext() (context.Context, context.CancelFunc) {
	if s.opt.Timeout > 0 {
		return context.WithTimeout(context.Background(), s.opt.Timeout)
	}
	return context.Background(), func() {}
}

// runCPU runs a machine built and poured by the caller to the end under
// the sweep's wall-clock budget, as run does.
func (s *Sweep) runCPU(c *cpu.CPU) (cpu.Stats, error) {
	ctx, cancel := s.simContext()
	defer cancel()
	return c.RunContext(ctx)
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

// simRun is one simulation of the run cache: its result, on a
// machine with an ASBR unit the unit's counters, and on the paper's
// ASBR machine its branch stream. Consumers share it read-only.
type simRun struct {
	res      *workload.Result
	fold     core.Stats
	branches branchLog
}

// branchLog records a run's branch-observer calls in order, one word
// per call: the branch's pc, which every engine keeps word-aligned,
// with taken in bit 0 and folded in bit 1.
type branchLog []uint32

// OnBranch implements cpu.BranchObserver.
func (l *branchLog) OnBranch(pc uint32, taken, folded bool) {
	if taken {
		pc |= 1
	}
	if folded {
		pc |= 2
	}
	*l = append(*l, pc)
}

// replay repeats the recorded calls on o, in order.
func (l branchLog) replay(o cpu.BranchObserver) {
	for _, w := range l {
		o.OnBranch(w&^3, w&1 != 0, w&2 != 0)
	}
}

// simulate returns the benchmark's run of prog on the machine built
// from mk's branch unit and, when asbr is non-nil, an ASBR unit,
// simulating each distinct machine at most once per sweep. It builds
// the cpu.Config itself, so no caller can attach a profiler, an
// observer, a mutation policy or a commit tap to a shared run; runs
// that need one of those call s.run directly. The one exception is
// its own: the paper's ASBR machine records its branch stream, by key,
// whichever table reaches it first (see logSize).
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
		r := &simRun{}
		var eng *core.Engine
		if asbr != nil {
			eng = core.NewEngine(asbr.cfg)
			if err := eng.Load(asbr.entries); err != nil {
				return nil, err
			}
			cfg.Fold = eng
			cfg.BDTUpdate = asbr.update
			if n, ok := s.logSize(key); ok {
				r.branches = make(branchLog, 0, n)
				cfg.Observer = &r.branches
			}
		}
		if r.res, err = s.run(prog, cfg, in); err != nil {
			return nil, err
		}
		if eng != nil {
			r.fold = eng.Stats()
		}
		return r, nil
	})
}

// paperAux is the run-cache name of the paper's ASBR auxiliary unit.
var paperAux = sync.OnceValue(func() string { return predict.AuxBimodal512().Name() })

// asbrRun returns the benchmark's run on Figure 11's ASBR machine with
// mk's auxiliary unit: the §8 program and Figure 11's BIT at the
// sweep's update point. With predict.AuxBimodal512 it is the paper's
// ASBR machine, which Figure 11's bi-512 cell, the power table's ASBR
// row and the predictability table all read.
func (s *Sweep) asbrRun(bench string, mk func() *predict.Unit) (*simRun, error) {
	pa, err := s.profiledRun(bench)
	if err != nil {
		return nil, err
	}
	entries, err := s.bitEntries(bench)
	if err != nil {
		return nil, err
	}
	return s.simulate(bench, pa.prog, mk,
		&asbrUnit{cfg: core.DefaultConfig(), entries: entries, update: s.opt.Update})
}

// logSize reports whether k is its benchmark's paper ASBR machine
// (asbrRun with predict.AuxBimodal512), whose run records its branch
// stream, and if so the capacity to give the log. The run calls the
// observer once per dynamic conditional branch, resolved or folded,
// which is the profiled run's count for the same program and input,
// and once more per fold fetched on a path that is then squashed:
// 0.01% more calls on G.721 and 2.3-2.7% more on ADPCM. A sixteenth
// of slack covers those. It decides by key rather than by caller, so
// an ablation whose machine is the paper's (the scheduling ablation's
// compiler-pass run) records the stream for every later reader.
func (s *Sweep) logSize(k runKey) (int, bool) {
	if k.unit != paperAux() || k.cfg != core.DefaultConfig() || k.update != s.opt.Update {
		return 0, false
	}
	pa, err := s.profiledRun(k.bench)
	if err != nil || pa.prog != k.prog {
		return 0, false
	}
	entries, err := s.bitEntries(k.bench)
	if err != nil || bitKey(entries) != k.bit {
		return 0, false
	}
	n := int(pa.prof.TotalBranches())
	return n + n/16, true
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
