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

// MachineFor assembles the serving/replay platform for a spec: the
// paper's cache organization (resized per spec), the calibrated
// mispredict penalty, and the requested BDT update point. The serve
// daemon, record replay and the DSE evaluators all build machines
// through this one constructor, so a served job, its cold replay and a
// search candidate cannot configure differently.
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
	return cpu.Config{
		ICache:                ic,
		DCache:                dc,
		Predictor:             spec.Predictor,
		Engine:                spec.Engine,
		BDTUpdate:             stage,
		ExtraMispredictCycles: experiment.ExtraMispredictCycles,
		MaxCycles:             spec.MaxCycles,
	}, nil
}

// Machine assembles the standard platform around a predictor name —
// MachineFor with the paper's default update point and cache sizes.
func Machine(predictor string, engine cpu.Engine, maxCycles uint64) cpu.Config {
	cfg, err := MachineFor(MachineSpec{Predictor: predictor, Engine: engine, MaxCycles: maxCycles})
	if err != nil {
		// Unreachable: the default spec has nothing to reject.
		panic(err)
	}
	return cfg
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
// Shared by the serve daemon, record replay and the DSE evaluators
// (identical selection is what makes an ASBR replay byte-identical).
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

// BenchResult is a finished benchmark simulation: the measured run,
// and for ASBR flows the number of BIT entries actually loaded plus
// the profiled baseline's cycle count.
type BenchResult struct {
	Res            *workload.Result
	Loaded         int
	BaselineCycles uint64
}

// RunBench executes one benchmark simulation over a shared artifact
// store: build (cached), input trace (cached), and for ASBR the
// paper's profile → select → fold pipeline. This is the single
// execution path behind POST /v1/sim bench requests and DSE candidate
// evaluation — a candidate evaluated locally and the same candidate
// dispatched to a daemon run byte-identical simulations by
// construction.
func RunBench(ctx context.Context, arts *runner.Artifacts, r BenchRun) (*BenchResult, error) {
	prog, err := arts.Program(r.Bench, r.Build)
	if err != nil {
		return nil, fmt.Errorf("corpus: build %s: %w", r.Bench, err)
	}
	in, err := arts.Input(r.Bench, r.Samples, r.Seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: input %s: %w", r.Bench, err)
	}
	cfg, err := MachineFor(r.Spec)
	if err != nil {
		return nil, err
	}
	// Runs simulating the same compiled benchmark share one decode
	// table via the artifact store.
	cfg.Predecoded = arts.Predecode(prog)
	if !r.ASBR {
		if r.Trace != nil {
			cfg.Obs = r.Trace
		}
		res, err := workload.RunContext(ctx, prog, cfg, in, r.Samples)
		if err != nil {
			return nil, err
		}
		return &BenchResult{Res: res}, nil
	}

	// ASBR flow: one profiled run on the auxiliary shadow, §6
	// selection, then the folded (measured) run — all under the same
	// budgets.
	prof := profile.New(predict.Must(predict.NewBimodal(512)))
	pcfg := cfg
	pcfg.Observer = prof
	base, err := workload.RunContext(ctx, prog, pcfg, in, r.Samples)
	if err != nil {
		return nil, err
	}
	eng, n, err := BuildEngineBanked(prog, prof, ResolveBITEntries(r.Bench, r.BITEntries), r.BITBanks, r.Samples)
	if err != nil {
		return nil, err
	}
	fcfg := cfg
	fcfg.Fold = eng
	if r.Trace != nil {
		// Trace the measured (folded) run only, never the profile run,
		// and let the engine report BIT/BDT events through the same sink.
		fcfg.Obs = r.Trace
		eng.SetEventSink(r.Trace)
	}
	res, err := workload.RunContext(ctx, prog, fcfg, in, r.Samples)
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

// RunContext is Run with cancellation. The record is validated first;
// the engine may be overridden per replay by mutating
// rec.Config.Engine before the call (the point of a differential
// replay).
func RunContext(ctx context.Context, rec Record) (obs.Snapshot, error) {
	if err := rec.Validate(); err != nil {
		return obs.Snapshot{}, err
	}
	eng, err := cpu.ParseEngine(rec.Config.Engine)
	if err != nil {
		return obs.Snapshot{}, err
	}
	cfg, err := MachineFor(rec.Config.MachineSpec(eng))
	if err != nil {
		return obs.Snapshot{}, err
	}
	if cfg.Predictor == "" {
		cfg.Predictor = "bimodal"
	}
	if rec.Bench != "" {
		return runBench(ctx, rec, cfg)
	}
	return runSource(ctx, rec, cfg)
}

// runBench rebuilds a benchmark record's program from its parsed
// canonical key (the manual/compiler scheduling bits ride in the key)
// and replays it over the regenerated input trace.
func runBench(ctx context.Context, rec Record, cfg cpu.Config) (obs.Snapshot, error) {
	pk, err := runner.ParseProgramKey(rec.Key)
	if err != nil {
		return obs.Snapshot{}, err
	}
	prog, err := workload.BuildOpt(rec.Bench, workload.BuildOptions{
		ManualSchedule:   pk.Manual,
		CompilerSchedule: pk.Compiler,
	})
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("corpus: build %s: %w", rec.Bench, err)
	}
	in, err := workload.Input(rec.Bench, rec.Config.Samples, rec.Config.Seed)
	if err != nil {
		return obs.Snapshot{}, err
	}
	if !rec.Config.ASBR {
		res, err := workload.RunContext(ctx, prog, cfg, in, rec.Config.Samples)
		if err != nil {
			return obs.Snapshot{}, err
		}
		return res.Stats.Snapshot(), nil
	}

	// ASBR flow, mirroring the serve daemon: one profiled run on the
	// auxiliary shadow, §6 selection, then the folded (measured) run.
	prof := profile.New(predict.Must(predict.NewBimodal(512)))
	pcfg := cfg
	pcfg.Observer = prof
	if _, err := workload.RunContext(ctx, prog, pcfg, in, rec.Config.Samples); err != nil {
		return obs.Snapshot{}, err
	}
	eng, _, err := BuildEngineBanked(prog, prof, ResolveBITEntries(rec.Bench, rec.Config.BITEntries), rec.Config.BITBanks, rec.Config.Samples)
	if err != nil {
		return obs.Snapshot{}, err
	}
	fcfg := cfg
	fcfg.Fold = eng
	res, err := workload.RunContext(ctx, prog, fcfg, in, rec.Config.Samples)
	if err != nil {
		return obs.Snapshot{}, err
	}
	return res.Stats.Snapshot(), nil
}

// runSource rebuilds a source record's program (assemble or compile,
// optional scheduling pass) and replays it bare.
func runSource(ctx context.Context, rec Record, cfg cpu.Config) (obs.Snapshot, error) {
	prog, err := BuildSource(rec.Source, rec.Compile, rec.Schedule)
	if err != nil {
		return obs.Snapshot{}, err
	}
	if !rec.Config.ASBR {
		c, err := runProgram(ctx, prog, cfg)
		if err != nil {
			return obs.Snapshot{}, err
		}
		return c.Stats().Snapshot(), nil
	}

	prof := profile.New(predict.Must(predict.NewBimodal(512)))
	pcfg := cfg
	pcfg.Observer = prof
	if _, err := runProgram(ctx, prog, pcfg); err != nil {
		return obs.Snapshot{}, err
	}
	eng, _, err := BuildEngineBanked(prog, prof, ResolveBITEntries("", rec.Config.BITEntries), rec.Config.BITBanks, 0)
	if err != nil {
		return obs.Snapshot{}, err
	}
	fcfg := cfg
	fcfg.Fold = eng
	c, err := runProgram(ctx, prog, fcfg)
	if err != nil {
		return obs.Snapshot{}, err
	}
	return c.Stats().Snapshot(), nil
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
