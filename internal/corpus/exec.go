package corpus

import (
	"context"
	"fmt"

	"asbr/internal/asm"
	"asbr/internal/cc"
	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/experiment"
	"asbr/internal/isa"
	"asbr/internal/mem"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/runner"
	"asbr/internal/sched"
	"asbr/internal/workload"
)

// MachineSpec names every machine-shape knob a serving request, replay
// record or DSE candidate can set: the predictor, the step engine, the
// watchdog budget, the BDT update point and the L1 geometries. The
// zero value of each field means the paper's platform default.
//
// The spec never decides which step loop actually runs — that is
// cpu.SelectEngine's job alone. Engine carries the caller's request
// (zero value EngineAuto); cpu.New resolves it against the hooks on
// the final Config.
type MachineSpec struct {
	Predictor string     // predictor spec family[:k=v,...] or legacy alias ("" = bimodal)
	Engine    cpu.Engine // requested step-loop (resolved by cpu.SelectEngine)
	MaxCycles uint64     // watchdog cycle budget (0 = engine default)
	Update    string     // BDT update point ex|mem|wb ("" = mem)
	ICacheKB  int        // I-cache size in KB (0 = the paper's 8)
	DCacheKB  int        // D-cache size in KB (0 = the paper's 8)
}

// MachineFor assembles the platform for a spec: the paper's cache
// organization (resized per spec), the calibrated mispredict penalty,
// the requested BDT update point, and the spec's predictor (bimodal
// when it names none). The serve daemon, record replay, the DSE
// evaluators and the asbr-sim/asbr-prof CLIs all build machines
// through this one constructor, so a served job, its cold replay, a
// search candidate and a local CLI run cannot configure differently.
func MachineFor(spec MachineSpec) (cpu.Config, error) {
	stage, err := cpu.ParseUpdatePoint(spec.Update)
	if err != nil {
		return cpu.Config{}, err
	}
	ic, dc := mem.DefaultICache(), mem.DefaultDCache()
	if spec.ICacheKB > 0 {
		ic.SizeBytes = spec.ICacheKB * 1024
	}
	if spec.DCacheKB > 0 {
		dc.SizeBytes = spec.DCacheKB * 1024
	}
	pred := spec.Predictor
	if pred == "" {
		pred = "bimodal"
	}
	return cpu.Config{
		ICache:                ic,
		DCache:                dc,
		Predictor:             pred,
		Engine:                spec.Engine,
		BDTUpdate:             stage,
		ExtraMispredictCycles: experiment.ExtraMispredictCycles,
		MaxCycles:             spec.MaxCycles,
	}, nil
}

// ResolveBITEntries maps a request's BIT capacity onto the effective
// one: an explicit request wins, then the paper's per-benchmark
// selected-branch count, then the paper's default BIT size.
func ResolveBITEntries(bench string, requested int) int {
	if requested > 0 {
		return requested
	}
	if bench != "" {
		if k := experiment.BITSizes()[bench]; k > 0 {
			return k
		}
	}
	return core.DefaultBITEntries
}

// BuildEngineBanked runs the §6 selection over a finished profile and
// loads the chosen branches into a fresh ASBR engine with banks BIT
// banks (0 = the engine's single-bank default), returning the engine
// and how many branches were actually loaded. Selection loads bank 0;
// extra banks are switchable capacity the DSE area model charges for.
// Every ASBR job selects through it (identical selection is what
// makes an ASBR replay byte-identical), and so does asbr-sim -asbr.
func BuildEngineBanked(prog *isa.Program, prof *profile.Profiler, k, banks, samples int) (*core.Engine, int, error) {
	cands, err := profile.Select(prog, prof, experiment.SelectOptionsFor(k, samples))
	if err != nil {
		return nil, 0, err
	}
	entries, err := profile.BuildBITFromCandidates(prog, cands)
	if err != nil {
		return nil, 0, err
	}
	eng := core.NewEngine(core.Config{BITEntries: k, Banks: banks, TrackValidity: true})
	if err := eng.Load(entries); err != nil {
		return nil, 0, err
	}
	return eng, len(entries), nil
}

// BenchRun describes one benchmark simulation under an explicit
// machine spec and scheduling level — the unit of work the serve
// daemon and the DSE evaluators share. Build selects the scheduling
// aggressiveness (workload.BuildOptionsLevel); the remaining fields
// mirror the wire request.
type BenchRun struct {
	Bench string
	Build workload.BuildOptions
	Spec  MachineSpec

	ASBR       bool
	BITEntries int // requested BIT capacity (0 = per-bench default)
	BITBanks   int // BIT bank count (0 = 1)

	Samples int
	Seed    int64

	// Trace, when non-nil, observes the measured (folded) run and
	// receives the engine's BIT/BDT events.
	Trace *obs.Tracer
}

// SourceRun describes one simulation of a built source program: the
// wire request's machine and ASBR fields, without benchmark input.
type SourceRun struct {
	Spec MachineSpec

	ASBR       bool
	BITEntries int // requested BIT capacity (0 = core.DefaultBITEntries)
	BITBanks   int // BIT bank count (0 = 1)

	// Trace, when non-nil, observes the measured (folded) run and
	// receives the engine's BIT/BDT events.
	Trace *obs.Tracer
}

// BenchResult is a finished simulation: the measured run, and for
// ASBR flows the number of BIT entries actually loaded plus the
// profiled baseline's cycle count. A source run's Res carries no
// benchmark output stream (Res.Output is nil; the program's syscall
// output is on Res.CPU).
type BenchResult struct {
	Res            *workload.Result
	Loaded         int
	BaselineCycles uint64
}

// RunBench executes one benchmark simulation over a shared artifact
// store: build (cached), input trace (cached), and for ASBR the
// paper's profile → select → fold pipeline. It and RunSource are the
// single execution path behind POST /v1/sim, record replay and DSE
// candidate evaluation — a candidate evaluated locally, the same
// candidate dispatched to a daemon and a served job's cold replay run
// byte-identical simulations by construction.
func RunBench(ctx context.Context, arts *runner.Artifacts, r BenchRun) (*BenchResult, error) {
	prog, err := arts.Program(r.Bench, r.Build)
	if err != nil {
		return nil, fmt.Errorf("corpus: build %s: %w", r.Bench, err)
	}
	in, err := arts.Input(r.Bench, r.Samples, r.Seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: input %s: %w", r.Bench, err)
	}
	job := SourceRun{
		Spec:       r.Spec,
		ASBR:       r.ASBR,
		BITEntries: ResolveBITEntries(r.Bench, r.BITEntries),
		BITBanks:   r.BITBanks,
		Trace:      r.Trace,
	}
	// Runs simulating the same compiled benchmark share one decode
	// table via the artifact store.
	return runJob(prog, arts.Predecode(prog), job, r.Samples, func(cfg cpu.Config) (*workload.Result, error) {
		return workload.RunContext(ctx, prog, cfg, in, r.Samples)
	})
}

// RunSource executes one simulation of a built source program
// (BuildSource): the program runs bare, with no benchmark input
// poured, and for ASBR through the same profile → select → fold
// pipeline as RunBench.
func RunSource(ctx context.Context, prog *isa.Program, r SourceRun) (*BenchResult, error) {
	r.BITEntries = ResolveBITEntries("", r.BITEntries)
	// Both legs of an ASBR job share one decode table.
	return runJob(prog, cpu.Predecode(prog), r, 0, func(cfg cpu.Config) (*workload.Result, error) {
		c, err := runProgram(ctx, prog, cfg)
		if err != nil {
			return nil, err
		}
		return &workload.Result{CPU: c, Stats: c.Stats()}, nil
	})
}

// runJob is the one execution path of a simulation job on the
// platform MachineFor builds from job.Spec: the plain run, or the
// paper's ASBR flow — one profiled run on the
// auxiliary bimodal-512 shadow, the §6 selection of job.BITEntries
// branches (samples scales its thresholds, see
// experiment.SelectOptionsFor), then the folded, measured run, all
// under the same budgets. run simulates one machine over the job's
// program and input. The tracer observes the measured run only.
func runJob(prog *isa.Program, pre *cpu.Predecoded, job SourceRun, samples int, run func(cpu.Config) (*workload.Result, error)) (*BenchResult, error) {
	cfg, err := MachineFor(job.Spec)
	if err != nil {
		return nil, err
	}
	cfg.Predecoded = pre
	if !job.ASBR {
		if job.Trace != nil {
			cfg.Obs = job.Trace
		}
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return &BenchResult{Res: res}, nil
	}
	prof := profile.New(predict.Must(predict.NewBimodal(512)))
	pcfg := cfg
	pcfg.Observer = prof
	base, err := run(pcfg)
	if err != nil {
		return nil, err
	}
	eng, n, err := BuildEngineBanked(prog, prof, job.BITEntries, job.BITBanks, samples)
	if err != nil {
		return nil, err
	}
	fcfg := cfg
	fcfg.Fold = eng
	if job.Trace != nil {
		// The engine reports BIT/BDT events through the same sink.
		fcfg.Obs = job.Trace
		eng.SetEventSink(job.Trace)
	}
	res, err := run(fcfg)
	if err != nil {
		return nil, err
	}
	return &BenchResult{Res: res, Loaded: n, BaselineCycles: base.Stats.Cycles}, nil
}

// Run replays one record and returns the snapshot its program
// produces under the record's configuration.
func Run(rec Record) (obs.Snapshot, error) {
	return RunContext(context.Background(), rec)
}

// RunContext is Run with cancellation, over a fresh artifact store
// (see RunWith).
func RunContext(ctx context.Context, rec Record) (obs.Snapshot, error) {
	return RunWith(ctx, &runner.Artifacts{}, rec)
}

// RunWith replays one record over an artifact store. The record is
// validated first; the engine may be overridden per replay by mutating
// rec.Config.Engine before the call (the point of a differential
// replay). A bench record replays through RunBench over arts, so
// records of one benchmark replayed through one store build its
// program once; a source record replays through BuildSource and
// RunSource. Either way it runs the served job's own execution path.
func RunWith(ctx context.Context, arts *runner.Artifacts, rec Record) (obs.Snapshot, error) {
	if err := rec.Validate(); err != nil {
		return obs.Snapshot{}, err
	}
	eng, err := cpu.ParseEngine(rec.Config.Engine)
	if err != nil {
		return obs.Snapshot{}, err
	}
	c := rec.Config
	var br *BenchResult
	if rec.Bench != "" {
		// The scheduling level rides in the canonical key's
		// manual/compiler bits.
		var pk runner.ProgramKey
		if pk, err = runner.ParseProgramKey(rec.Key); err == nil {
			br, err = RunBench(ctx, arts, BenchRun{
				Bench:      rec.Bench,
				Build:      workload.BuildOptions{ManualSchedule: pk.Manual, CompilerSchedule: pk.Compiler},
				Spec:       c.MachineSpec(eng),
				ASBR:       c.ASBR,
				BITEntries: c.BITEntries,
				BITBanks:   c.BITBanks,
				Samples:    c.Samples,
				Seed:       c.Seed,
			})
		}
	} else {
		var prog *isa.Program
		if prog, err = BuildSource(rec.Source, rec.Compile, rec.Schedule); err == nil {
			br, err = RunSource(ctx, prog, SourceRun{
				Spec:       c.MachineSpec(eng),
				ASBR:       c.ASBR,
				BITEntries: c.BITEntries,
				BITBanks:   c.BITBanks,
			})
		}
	}
	if err != nil {
		return obs.Snapshot{}, err
	}
	return br.Res.Stats.Snapshot(), nil
}

// BuildSource builds a program from posted text: MiniC compilation or
// assembly, plus the optional §5.1 scheduling pass.
func BuildSource(src string, compile, schedule bool) (*isa.Program, error) {
	var prog *isa.Program
	var err error
	if compile {
		prog, err = cc.CompileToProgram(src)
	} else {
		prog, err = asm.Assemble(src)
	}
	if err != nil {
		return nil, err
	}
	if schedule {
		if prog, _, err = sched.Schedule(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

func runProgram(ctx context.Context, prog *isa.Program, cfg cpu.Config) (*cpu.CPU, error) {
	c, err := cpu.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	if _, err := c.RunContext(ctx); err != nil {
		return nil, err
	}
	return c, nil
}
