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

	"asbr/internal/asm"
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
func pour(prog *isa.Program, in []int32) func(*cpu.CPU) error { return pourN(prog, in, equivSamples) }

// pourN is pour for an input of n samples.
func pourN(prog *isa.Program, in []int32, n int) func(*cpu.CPU) error {
	return func(c *cpu.CPU) error {
		if err := workload.Pour(c, prog, "n_samples", []int32{int32(n)}); err != nil {
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

// foldResult is everything observable about one folded run.
type foldResult struct {
	Engine   cpu.Engine
	Stats    cpu.Stats
	Core     core.Stats
	ByPC     map[uint32]uint64
	Branches branchDigest
	Output   []int32 // the benchmark's output array, or the syscall output
	Regs     [isa.NumRegs]int32
	Err      string
}

// branchDigest is a branch observer that hashes the outcome stream.
type branchDigest struct {
	N   int
	Sum uint64
}

func (b *branchDigest) OnBranch(pc uint32, taken, folded bool) {
	b.N++
	b.Sum = (b.Sum ^ uint64(pc)<<2 ^ uint64(b2u(taken))<<1 ^ uint64(b2u(folded))) * 1099511628211
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// runFolded runs prog under cfg with eng as its ASBR unit and a
// branch observer. prep pours the input (nil for self-contained
// programs). A run that fails still yields its counters: engines must
// agree on failures too.
func runFolded(t *testing.T, prog *isa.Program, cfg cpu.Config, eng *core.Engine, prep func(*cpu.CPU) error) foldResult {
	t.Helper()
	var br branchDigest
	cfg.Fold, cfg.Observer = eng, &br
	c, err := cpu.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		if err := prep(c); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.RunContext(context.Background())
	r := foldResult{Engine: c.ResolvedEngine(), Stats: st, Core: eng.Stats(), ByPC: eng.FoldsByPC(), Branches: br, Output: c.Output}
	if err != nil {
		r.Err = err.Error()
	} else if prep != nil {
		if r.Output, err = workload.ReadOutput(c, prog); err != nil {
			t.Fatal(err)
		}
	}
	for i := range r.Regs {
		r.Regs[i] = c.Reg(isa.Reg(i))
	}
	return r
}

// requireFoldEquivalent runs the folded configuration on the
// reference, fast and superblock engines (fresh ASBR units from
// newEng) and requires identical results; the superblock request must
// stay on the superblock engine. It returns the reference result.
func requireFoldEquivalent(t *testing.T, prog *isa.Program, cfg cpu.Config, newEng func() *core.Engine, prep func(*cpu.CPU) error) foldResult {
	t.Helper()
	var ref foldResult
	for _, e := range []cpu.Engine{cpu.EngineReference, cpu.EngineFast, cpu.EngineSuperblock} {
		cfg.Engine = e
		r := runFolded(t, prog, cfg, newEng(), prep)
		if r.Engine != e {
			t.Fatalf("folded %s config resolved to %s", e, r.Engine)
		}
		if e == cpu.EngineReference {
			ref = r
			continue
		}
		r.Engine = ref.Engine
		if !reflect.DeepEqual(ref, r) {
			t.Fatalf("folded %s run differs from reference:\nreference %+v\n%-9s %+v", e, ref, e, r)
		}
	}
	return ref
}

// TestEngineFoldEquivalence runs the full ASBR flow (profile, select,
// fold) and requires every engine to make the same fold decisions.
// The profiling leg under EngineAuto must run on the superblock engine
// and leave the profiler exactly as a reference run does. The folded
// leg runs every BDT update point with validity tracking on and off on
// all three engines: identical cpu.Stats, core.Stats, per-branch fold
// counts, branch-observer streams, output and registers. A lockstep
// pass compares the commit streams of the reference and
// superblock-requested machines, which the commit observer moves to
// the fast engine.
func TestEngineFoldEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			prog, in := buildBench(t, name)

			// Profile to pick the fold set, as asbr-sim -asbr does.
			profileOn := func(e cpu.Engine) *profile.Profiler {
				prof := profile.New(predict.Must(predict.NewBimodal(512)))
				pcfg := engCfg(e)
				pcfg.Observer = prof
				res, err := workload.RunContext(context.Background(), prog, pcfg, in, equivSamples)
				if err != nil {
					t.Fatalf("profile run: %v", err)
				}
				if e == cpu.EngineAuto && res.CPU.ResolvedEngine() != cpu.EngineSuperblock {
					t.Fatalf("auto profiling run resolved to %s", res.CPU.ResolvedEngine())
				}
				return prof
			}
			prof, refProf := profileOn(cpu.EngineAuto), profileOn(cpu.EngineReference)
			if !reflect.DeepEqual(prof.Stats(), refProf.Stats()) {
				t.Fatal("superblock profiling run differs from the reference run")
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
			newEng := func(validity bool) func() *core.Engine {
				return func() *core.Engine {
					e := core.NewEngine(core.Config{BITEntries: core.DefaultBITEntries, TrackValidity: validity})
					if err := e.Load(entries); err != nil {
						t.Fatalf("load BIT: %v", err)
					}
					return e
				}
			}

			for _, up := range []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB} {
				for _, validity := range []bool{true, false} {
					t.Run(fmt.Sprintf("%s/validity=%t", up, validity), func(t *testing.T) {
						cfg := engCfg(cpu.EngineReference)
						cfg.BDTUpdate = up
						if !validity {
							// Unsafe folds may derail the program: bound it.
							cfg.MaxCycles = 20_000_000
						}
						ref := requireFoldEquivalent(t, prog, cfg, newEng(validity), pour(prog, in))
						if ref.Stats.Folded == 0 {
							t.Errorf("folded run performed no folds (entries=%d)", len(entries))
						}
						// The superblock run above is the run an auto request
						// gets; check that it resolves there.
						cfg.Engine, cfg.Fold = cpu.EngineAuto, newEng(validity)()
						c, err := cpu.New(cfg, prog)
						if err != nil {
							t.Fatal(err)
						}
						if got := c.ResolvedEngine(); got != cpu.EngineSuperblock {
							t.Errorf("auto folded machine resolved to %s", got)
						}
					})
				}
			}

			refCfg, testCfg := engCfg(cpu.EngineReference), engCfg(cpu.EngineSuperblock)
			refEng, testEng := newEng(true)(), newEng(true)()
			refCfg.Fold, testCfg.Fold = refEng, testEng
			rep, err := fault.RunPair(prog, refCfg, testCfg, pour(prog, in))
			if err != nil {
				t.Fatalf("RunPair: %v", err)
			}
			if rep.Diverged || rep.BaseErr != nil || rep.TestErr != nil {
				t.Fatalf("folded engines diverged: %s (base %v, test %v)", rep, rep.BaseErr, rep.TestErr)
			}
			if !reflect.DeepEqual(refEng.Stats(), testEng.Stats()) {
				t.Errorf("lockstep fold decisions differ:\nreference %+v\ntest      %+v", refEng.Stats(), testEng.Stats())
			}
		})
	}
}

// faultSamples and faultMaxCycles size TestEngineFaultEquivalence. The
// budget is a few times a clean run's length: a corrupted BIT can send
// a guest into a loop it never leaves, and engines must agree on the
// watchdog trip too.
const (
	faultSamples   = 128
	faultMaxCycles = 1_000_000
)

// TestEngineFaultEquivalence runs the folded leg under every fault plan
// with the injector installed on the ASBR unit, on the reference, fast
// and superblock engines: every kind at rate 1, and two sampled plans
// whose RNG draws must line up across engines. It requires identical
// cpu.Stats, core.Stats, per-branch folds, branch-observer streams,
// output, registers, error and injected-fault log, and a superblock
// request must stay on the superblock engine. All benchmarks run at
// the MEM update point; ADPCM encode runs all three.
func TestEngineFaultEquivalence(t *testing.T) {
	plans := []fault.Plan{}
	for _, k := range fault.Kinds() {
		plans = append(plans, fault.DefaultPlan(k))
	}
	for _, spec := range []string{"bdt-flip:rate=0.25,seed=7", "bit-alias:rate=0.1,seed=3,max=4"} {
		p, err := fault.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	injected := map[fault.Kind]int{}
	for _, name := range workload.Names() {
		prog, in := buildBenchN(t, name, faultSamples)
		// Select as the reliability table does: no distance filter, so
		// stale-prone branches keep the validity counters load-bearing.
		prof := profile.New(predict.Must(predict.NewBimodal(512)))
		pcfg := engCfg(cpu.EngineAuto)
		pcfg.Observer = prof
		if _, err := workload.RunContext(context.Background(), prog, pcfg, in, faultSamples); err != nil {
			t.Fatalf("%s profile run: %v", name, err)
		}
		cands, err := profile.Select(prog, prof, profile.SelectOptions{
			Aux: "bimodal-512", K: core.DefaultBITEntries, MinCount: faultSamples / 16,
		})
		if err != nil {
			t.Fatalf("%s select: %v", name, err)
		}
		entries, err := profile.BuildBITFromCandidates(prog, cands)
		if err != nil || len(entries) == 0 {
			t.Fatalf("%s BIT: %d entries, %v", name, len(entries), err)
		}
		ups := []cpu.Stage{cpu.StageMEM}
		if name == workload.ADPCMEncode {
			ups = []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB}
		}
		for _, up := range ups {
			for _, plan := range plans {
				t.Run(fmt.Sprintf("%s/%s/%s", name, up, plan), func(t *testing.T) {
					var injs []*fault.Injector
					newEng := func() *core.Engine {
						e := core.NewEngine(core.Config{BITEntries: core.DefaultBITEntries, TrackValidity: true})
						if err := e.Load(entries); err != nil {
							t.Fatalf("load BIT: %v", err)
						}
						injs = append(injs, fault.NewInjector(plan, e))
						return e
					}
					cfg := engCfg(cpu.EngineReference)
					cfg.BDTUpdate, cfg.MaxCycles = up, faultMaxCycles
					ref := requireFoldEquivalent(t, prog, cfg, newEng, pourN(prog, in, faultSamples))
					if plan.Kind == fault.KindNone && ref.Err != "" {
						t.Fatalf("clean run failed: %s", ref.Err)
					}
					// requireFoldEquivalent built the units in engine order:
					// reference, fast, superblock.
					want := injs[0].Events()
					for i, e := range []cpu.Engine{cpu.EngineFast, cpu.EngineSuperblock} {
						if got := injs[i+1].Events(); !reflect.DeepEqual(want, got) {
							t.Fatalf("injected faults differ: reference %d events, %s %d events", len(want), e, len(got))
						}
					}
					injected[plan.Kind] += len(want)
				})
			}
		}
	}
	for _, k := range fault.Kinds()[1:] {
		if injected[k] == 0 {
			t.Errorf("%s never injected a fault", k)
		}
	}
}

// assemble assembles a directed test program.
func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// foldDirectedSrc counts s0 down from 40. The beqz at "test" is taken
// on even s0, so its BIT entry injects the mult at "even" when it
// folds taken (an fcBreak word, which the fused loop does not play),
// and the addiu after it when it folds not taken. The bnez at "sys"
// falls through only when s0 is a multiple of 8, so its fall-through
// word is a syscall (print a0). The pipeline delivers both conditions
// well ahead of their branches, so the BDT holds valid predicates.
const foldDirectedSrc = `
main:	li	s0, 40
	li	s1, 0
	li	v0, 1
loop:	addiu	s0, s0, -1
	andi	t1, s0, 1
	andi	t2, s0, 7
	move	a0, s0
	nop
	nop
	nop
test:	beqz	t1, even
	addiu	s1, s1, 3
	j	next
even:	mult	s0, s0
	mflo	t3
	addu	s1, s1, t3
next:	nop
	nop
sys:	bnez	t2, skip
	syscall
skip:	bnez	s0, loop
	move	a0, s1
	syscall
	jr	ra
`

// TestEngineFoldDirected folds branches whose injected words the
// superblock engine's fused loop does not play — a mult, a syscall, and
// a word that differs from the text's own (a stale BIT copy) — which
// must take the loop's top-of-cycle exit and leave every engine in
// agreement.
func TestEngineFoldDirected(t *testing.T) {
	prog := assemble(t, foldDirectedSrc)
	entries, err := core.BuildBIT(prog, []uint32{prog.Symbols["test"], prog.Symbols["sys"]})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := prog.WordAt(prog.Symbols["even"]); entries[0].BTI != w {
		t.Fatal("entry 0 is not the mult branch")
	}
	stale := append([]core.BITEntry(nil), entries...)
	stale[0].BFI = isa.MustEncode(isa.Inst{Op: isa.OpADDIU, Rt: isa.RegT0 + 4, Rs: isa.RegZero, Imm: 7})
	for name, bit := range map[string][]core.BITEntry{"text": entries, "stale-word": stale} {
		for _, up := range []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB} {
			t.Run(fmt.Sprintf("%s/%s", name, up), func(t *testing.T) {
				cfg := cpu.Config{BDTUpdate: up, Predictor: "bimodal", ICache: mem.DefaultICache(), DCache: mem.DefaultDCache()}
				ref := requireFoldEquivalent(t, prog, cfg, func() *core.Engine {
					e := core.NewEngine(core.DefaultConfig())
					if err := e.Load(bit); err != nil {
						t.Fatal(err)
					}
					return e
				}, nil)
				if ref.Err != "" {
					t.Fatalf("run failed: %s", ref.Err)
				}
				if ref.ByPC[prog.Symbols["test"]] == 0 || ref.ByPC[prog.Symbols["sys"]] == 0 || ref.Stats.FoldedTaken == 0 {
					t.Errorf("directed branches did not fold: %v (taken %d)", ref.ByPC, ref.Stats.FoldedTaken)
				}
				if len(ref.Output) != 6 {
					t.Errorf("output = %v, want 5 syscall prints and the sum", ref.Output)
				}
			})
		}
	}
}

// bankSwitchSrc runs two loops with a bitsw before each: bank 0 holds
// the first loop's branch, bank 1 the second's.
const bankSwitchSrc = `
main:	li	t0, 30
	bitsw	0
	nop
	nop
	nop
l1:	addiu	t0, t0, -1
	addiu	t2, t2, 1
	nop
	nop
	nop
	bnez	t0, l1
	li	t1, 30
	bitsw	1
	nop
	nop
	nop
l2:	addiu	t1, t1, -1
	addiu	t3, t3, 2
	nop
	nop
	nop
	bnez	t1, l2
	bitsw	0
	jr	ra
`

// TestEngineFoldBankSwitch runs bitsw BIT-bank switching on every
// engine: the switch commits in the per-cycle stages, and the fused
// loop must fold from whichever bank is active when it resumes.
func TestEngineFoldBankSwitch(t *testing.T) {
	prog := assemble(t, bankSwitchSrc)
	pcs := core.FoldableBranches(prog)
	if len(pcs) != 2 {
		t.Fatalf("foldable branches = %d, want 2", len(pcs))
	}
	newEng := func() *core.Engine {
		e := core.NewEngine(core.Config{BITEntries: 1, Banks: 2, TrackValidity: true})
		for bank, pc := range pcs {
			en, err := core.BuildEntry(prog, pc)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.LoadBank(bank, []core.BITEntry{en}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	for _, up := range []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB} {
		t.Run(up.String(), func(t *testing.T) {
			ref := requireFoldEquivalent(t, prog, cpu.Config{BDTUpdate: up, Predictor: "bimodal"}, newEng, nil)
			if ref.Err != "" {
				t.Fatalf("run failed: %s", ref.Err)
			}
			if ref.Core.BankSwitches != 3 || ref.ByPC[pcs[0]] == 0 || ref.ByPC[pcs[1]] == 0 {
				t.Errorf("bank switching did not fold both loops: switches %d, folds %v", ref.Core.BankSwitches, ref.ByPC)
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
