// Lockstep equivalence gate for the fast engine: the predecoded step
// loop must be architecturally indistinguishable from the reference
// engine on every paper benchmark — same commit stream, same cycle
// counts, same statistics, same fold decisions, same final register
// file. A fast path that changes any of these is a bug, not an
// optimization.
package cpu_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/fault"
	"asbr/internal/isa"
	"asbr/internal/mem"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/workload"
)

const equivSamples = 512

func buildBench(t *testing.T, name string) (*isa.Program, []int32) {
	t.Helper()
	prog, err := workload.Build(name, true)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	in, err := workload.Input(name, equivSamples, 1)
	if err != nil {
		t.Fatalf("input %s: %v", name, err)
	}
	return prog, in
}

func engCfg(e cpu.Engine) cpu.Config { return engCfgPred(e, "bimodal") }

func engCfgPred(e cpu.Engine, predictor string) cpu.Config {
	return cpu.Config{
		ICache:    mem.DefaultICache(),
		DCache:    mem.DefaultDCache(),
		Predictor: predictor,
		Engine:    e,
		MaxCycles: 1 << 30,
	}
}

// zooSpecs are the stateful predictor-zoo configurations the
// equivalence gates cover beyond the bimodal default: TAGE's tagged
// tables and the loop predictor's trip counters live in the branch
// unit, so the superblock engine's PredictFetch/Resolve chaining must
// reproduce the reference engine's exact training sequence.
var zooSpecs = []string{"tage:tables=4,entries=256,hist=32", "loop:entries=64", "tageloop"}

// pour preps a machine the way workload.RunContext does, so the
// lockstep pair sees the benchmark's real input.
func pour(prog *isa.Program, in []int32) func(*cpu.CPU) error {
	return func(c *cpu.CPU) error {
		if err := workload.Pour(c, prog, "n_samples", []int32{int32(equivSamples)}); err != nil {
			return err
		}
		return workload.Pour(c, prog, "input", in)
	}
}

// TestEngineLockstepEquivalence compares the reference engine commit
// by commit against each other engine on all four benchmarks via the
// fault harness's divergence checker (with no faults injected). The
// checker attaches a commit observer to both machines, so a
// superblock request provably falls back to the per-cycle fast loop
// (CommitObs capability) — the lockstep gate covers exactly the
// engine a superblock machine degrades to, while the stats gate below
// covers the live superblock path.
func TestEngineLockstepEquivalence(t *testing.T) {
	preds := append([]string{"bimodal"}, zooSpecs...)
	for _, eng := range []cpu.Engine{cpu.EngineFast, cpu.EngineSuperblock} {
		for _, pred := range preds {
			// The bimodal default covers all benchmarks; the zoo specs
			// cover one encoder and one decoder to bound runtime.
			benches := workload.Names()
			if pred != "bimodal" {
				benches = []string{workload.ADPCMEncode, workload.G721Decode}
			}
			for _, name := range benches {
				t.Run(eng.String()+"/"+pred+"/"+name, func(t *testing.T) {
					prog, in := buildBench(t, name)
					rep, err := fault.RunPair(prog,
						engCfgPred(cpu.EngineReference, pred), engCfgPred(eng, pred), pour(prog, in))
					if err != nil {
						t.Fatalf("RunPair: %v", err)
					}
					if rep.BaseErr != nil || rep.TestErr != nil {
						t.Fatalf("simulation errors: reference %v, %s %v", rep.BaseErr, eng, rep.TestErr)
					}
					if rep.Diverged {
						t.Fatalf("engines diverged: %s", rep)
					}
					if rep.Commits == 0 {
						t.Fatal("no commits compared")
					}
				})
			}
		}
	}
}

// TestEngineStatsEquivalence requires bit-identical statistics (every
// counter, including cycles and stall breakdowns), outputs, and final
// register files from independent reference, fast and superblock runs.
// This is the gate that exercises the live superblock path: a hookless
// EngineSuperblock config resolves to the superblock loop itself.
func TestEngineStatsEquivalence(t *testing.T) {
	for _, pred := range append([]string{"bimodal"}, zooSpecs...) {
		benches := workload.Names()
		if pred != "bimodal" {
			benches = []string{workload.ADPCMEncode, workload.G721Decode}
		}
		for _, name := range benches {
			t.Run(pred+"/"+name, func(t *testing.T) {
				prog, in := buildBench(t, name)
				ref, err := workload.RunContext(context.Background(), prog, engCfgPred(cpu.EngineReference, pred), in, equivSamples)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				for _, eng := range []cpu.Engine{cpu.EngineFast, cpu.EngineSuperblock} {
					res, err := workload.RunContext(context.Background(), prog, engCfgPred(eng, pred), in, equivSamples)
					if err != nil {
						t.Fatalf("%s run: %v", eng, err)
					}
					if got := res.CPU.ResolvedEngine(); got != eng {
						t.Fatalf("hookless %s config resolved to %s", eng, got)
					}
					if !reflect.DeepEqual(ref.Stats, res.Stats) {
						t.Errorf("stats mismatch:\nreference %+v\n%-9s %+v", ref.Stats, eng, res.Stats)
					}
					if !reflect.DeepEqual(ref.Output, res.Output) {
						t.Errorf("output mismatch: %d vs %d words", len(ref.Output), len(res.Output))
					}
					for r := 0; r < isa.NumRegs; r++ {
						if rv, fv := ref.CPU.Reg(isa.Reg(r)), res.CPU.Reg(isa.Reg(r)); rv != fv {
							t.Errorf("final $%d: reference %d, %s %d", r, rv, eng, fv)
						}
					}
					if ref.CPU.ExitCode() != res.CPU.ExitCode() {
						t.Errorf("exit code: reference %d, %s %d", ref.CPU.ExitCode(), eng, res.CPU.ExitCode())
					}
				}
			})
		}
	}
}

// TestEngineSlowHitEquivalence repeats the stats check with two-cycle
// cache hits, where a hit stalls the stage: the fast engine's same-line
// I-cache shortcut must charge the hit latency too, and the fused loop
// must leave such machines to the per-cycle stages.
func TestEngineSlowHitEquivalence(t *testing.T) {
	for _, name := range []string{workload.ADPCMEncode, workload.G721Decode} {
		t.Run(name, func(t *testing.T) {
			prog, in := buildBench(t, name)
			cfg := func(e cpu.Engine) cpu.Config {
				c := engCfg(e)
				c.ICache.HitCycles, c.DCache.HitCycles = 2, 2
				return c
			}
			ref, err := workload.RunContext(context.Background(), prog, cfg(cpu.EngineReference), in, equivSamples)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for _, eng := range []cpu.Engine{cpu.EngineFast, cpu.EngineSuperblock} {
				res, err := workload.RunContext(context.Background(), prog, cfg(eng), in, equivSamples)
				if err != nil {
					t.Fatalf("%s run: %v", eng, err)
				}
				if !reflect.DeepEqual(ref.Stats, res.Stats) {
					t.Errorf("stats mismatch:\nreference %+v\n%-9s %+v", ref.Stats, eng, res.Stats)
				}
			}
		})
	}
}

// TestEngineStepThenRun steps a superblock machine a few cycles before
// handing it to RunContext: the run loop picks the pipeline up
// mid-flight — possibly straight into the fused loop — and must end
// bit-identical to a fresh reference run.
func TestEngineStepThenRun(t *testing.T) {
	for _, name := range workload.Names() {
		prog, in := buildBench(t, name)
		ref, err := workload.RunContext(context.Background(), prog, engCfg(cpu.EngineReference), in, equivSamples)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		for _, k := range []int{1, 3, 5, 997} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				c, err := cpu.New(engCfg(cpu.EngineSuperblock), prog)
				if err != nil {
					t.Fatal(err)
				}
				if err := pour(prog, in)(c); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					c.Step()
				}
				st, err := c.RunContext(context.Background())
				if err != nil {
					t.Fatalf("run after %d steps: %v", k, err)
				}
				if got := c.ResolvedEngine(); got != cpu.EngineSuperblock {
					t.Fatalf("resolved to %s", got)
				}
				if !reflect.DeepEqual(ref.Stats, st) {
					t.Errorf("stats mismatch:\nreference  %+v\nstep+run   %+v", ref.Stats, st)
				}
				out, err := workload.ReadOutput(c, prog)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref.Output, out) || !reflect.DeepEqual(ref.CPU.Output, c.Output) {
					t.Errorf("output mismatch")
				}
				for r := 0; r < isa.NumRegs; r++ {
					if rv, sv := ref.CPU.Reg(isa.Reg(r)), c.Reg(isa.Reg(r)); rv != sv {
						t.Errorf("final $%d: reference %d, step+run %d", r, rv, sv)
					}
				}
			})
		}
	}
}

// TestEngineFoldEquivalence runs the full ASBR flow (profile, select,
// fold) on both engines and requires identical fold decisions: the
// same Folded/FoldedTaken/FoldFallbacks counters and the same core
// engine statistics, on top of lockstep-clean commit streams.
func TestEngineFoldEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			prog, in := buildBench(t, name)

			// Profile once to pick the fold set, as asbr-sim -asbr does.
			prof := profile.New(predict.Must(predict.NewBimodal(512)))
			pcfg := engCfg(cpu.EngineFast)
			pcfg.Observer = prof
			if _, err := workload.RunContext(context.Background(), prog, pcfg, in, equivSamples); err != nil {
				t.Fatalf("profile run: %v", err)
			}
			cands, err := profile.Select(prog, prof, profile.SelectOptions{
				Aux: "bimodal-512", MinDistance: 3, K: core.DefaultBITEntries,
			})
			if err != nil {
				t.Fatalf("select: %v", err)
			}
			entries, err := profile.BuildBITFromCandidates(prog, cands)
			if err != nil {
				t.Fatalf("build BIT: %v", err)
			}
			if len(entries) == 0 {
				t.Skipf("%s selected no fold candidates at n=%d", name, equivSamples)
			}

			foldEng := func() *core.Engine {
				e := core.NewEngine(core.Config{BITEntries: core.DefaultBITEntries, TrackValidity: true})
				if err := e.Load(entries); err != nil {
					t.Fatalf("load BIT: %v", err)
				}
				return e
			}

			refEng, fastEng := foldEng(), foldEng()
			refCfg := engCfg(cpu.EngineReference)
			refCfg.Fold = refEng
			fastCfg := engCfg(cpu.EngineFast)
			fastCfg.Fold = fastEng

			rep, err := fault.RunPair(prog, refCfg, fastCfg, pour(prog, in))
			if err != nil {
				t.Fatalf("RunPair: %v", err)
			}
			if rep.Diverged || rep.BaseErr != nil || rep.TestErr != nil {
				t.Fatalf("folded engines diverged: %s (base %v, test %v)", rep, rep.BaseErr, rep.TestErr)
			}
			if !reflect.DeepEqual(refEng.Stats(), fastEng.Stats()) {
				t.Errorf("fold decisions differ:\nreference %+v\nfast      %+v", refEng.Stats(), fastEng.Stats())
			}
			// Lockstep consumed both machines; rerun independently for the
			// CPU-side fold counters.
			refEng2, fastEng2 := foldEng(), foldEng()
			refCfg.Fold, fastCfg.Fold = refEng2, fastEng2
			refRes, err := workload.RunContext(context.Background(), prog, refCfg, in, equivSamples)
			if err != nil {
				t.Fatalf("reference folded run: %v", err)
			}
			fastRes, err := workload.RunContext(context.Background(), prog, fastCfg, in, equivSamples)
			if err != nil {
				t.Fatalf("fast folded run: %v", err)
			}
			if !reflect.DeepEqual(refRes.Stats, fastRes.Stats) {
				t.Errorf("folded stats mismatch:\nreference %+v\nfast      %+v", refRes.Stats, fastRes.Stats)
			}
			if refRes.Stats.Folded == 0 {
				t.Errorf("folded run performed no folds (entries=%d)", len(entries))
			}
		})
	}
}

// TestEngineSharedPredecode pins the sharing contract: one Predecoded
// table may back any number of machines, including mixed with machines
// that build their own, without changing results.
func TestEngineSharedPredecode(t *testing.T) {
	prog, in := buildBench(t, workload.ADPCMEncode)
	shared := cpu.Predecode(prog)

	own, err := workload.RunContext(context.Background(), prog, engCfg(cpu.EngineFast), in, equivSamples)
	if err != nil {
		t.Fatalf("own-table run: %v", err)
	}
	cfg := engCfg(cpu.EngineFast)
	cfg.Predecoded = shared
	sharedRes, err := workload.RunContext(context.Background(), prog, cfg, in, equivSamples)
	if err != nil {
		t.Fatalf("shared-table run: %v", err)
	}
	if !reflect.DeepEqual(own.Stats, sharedRes.Stats) {
		t.Errorf("shared predecode changed stats:\nown    %+v\nshared %+v", own.Stats, sharedRes.Stats)
	}

	// A table from a different program must be rejected up front.
	other, err := workload.Build(workload.ADPCMDecode, true)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	bad := engCfg(cpu.EngineFast)
	bad.Predecoded = cpu.Predecode(other)
	if _, err := cpu.New(bad, prog); err == nil {
		t.Fatal("mismatched Predecoded table accepted")
	}
}
