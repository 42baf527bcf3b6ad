package cpu_test

import (
	"context"
	"errors"
	"reflect"
	"runtime/debug"
	"testing"

	"asbr/internal/core"
	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/predict"
	"asbr/internal/profile"
)

// fuzzRun is everything observable about one folded run of the fuzz
// target.
type fuzzRun struct {
	Stats     cpu.Stats
	Core      core.Stats
	Regs      [isa.NumRegs]int32
	Output    []int32
	OutputStr []byte
	Code      cpu.ErrCode
	PC        uint32
	Cycle     uint64
}

// FuzzEngineEquivalence generates a MiniC program with corpus.Generate
// from the fuzzer's seed and knobs, selects a BIT from the program's
// own profile, and runs the folded program on the reference, fast and
// superblock engines at the fuzzer's BDT update point, with validity
// tracking on or off, under a small MaxCycles. The three runs must
// agree on cpu.Stats, core.Stats, registers, output and the
// *SimError's code, pc and cycle; a panic on any engine fails the
// target. Unsafe folds (validity off) and the small budget steer runs
// into wrong paths, memory faults and the watchdog.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(128), uint8(90), uint8(25), uint8(1), true, uint16(40000))
	f.Add(int64(2001), uint8(16), uint8(2), uint8(230), uint8(230), uint8(0), uint8(0), false, uint16(9000))
	f.Add(int64(-7), uint8(4), uint8(1), uint8(0), uint8(255), uint8(128), uint8(2), true, uint16(700))
	f.Add(int64(42), uint8(30), uint8(5), uint8(64), uint8(200), uint8(60), uint8(2), false, uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, stmts, depth, taken, foldd, calld, up uint8, validity bool, budget uint16) {
		knobs := corpus.Knobs{
			Stmts:       1 + int(stmts)%64,
			LoopDepth:   1 + int(depth)%6,
			TakenBias:   float64(taken) / 255,
			FoldDensity: float64(foldd) / 255,
			CallDensity: float64(calld) / 255,
		}
		src, err := corpus.Generate(seed, knobs)
		if err != nil {
			t.Skip() // out-of-range knobs are rejected, not generated around
		}
		prog, err := corpus.BuildSource(src, true, true)
		if err != nil {
			t.Fatalf("seed %d knobs %+v: generated program does not build: %v", seed, knobs, err)
		}
		cfg, err := corpus.MachineFor(corpus.MachineSpec{MaxCycles: 500 + uint64(budget)})
		if err != nil {
			t.Fatal(err)
		}
		cfg.BDTUpdate = []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB}[up%3]

		prof := profile.New(predict.Must(predict.NewBimodal(512)))
		pcfg := cfg
		pcfg.Observer = prof
		fuzzRunOn(t, prog, pcfg, cpu.EngineAuto)
		cands, err := profile.Select(prog, prof, profile.SelectOptions{Aux: "bimodal-512", K: core.DefaultBITEntries})
		if err != nil {
			t.Fatal(err)
		}
		entries, err := profile.BuildBITFromCandidates(prog, cands)
		if err != nil {
			t.Fatal(err)
		}

		var ref fuzzRun
		for _, e := range []cpu.Engine{cpu.EngineReference, cpu.EngineFast, cpu.EngineSuperblock} {
			eng := core.NewEngine(core.Config{TrackValidity: validity})
			if err := eng.Load(entries); err != nil {
				t.Fatal(err)
			}
			fcfg := cfg
			fcfg.Fold = eng
			r := fuzzRunOn(t, prog, fcfg, e)
			r.Core = eng.Stats()
			if e == cpu.EngineReference {
				ref = r
				continue
			}
			if !reflect.DeepEqual(ref, r) {
				t.Fatalf("seed %d knobs %+v update %s validity %t: %s differs from reference:\nreference %+v\n%-9s %+v",
					seed, knobs, cfg.BDTUpdate, validity, e, ref, e, r)
			}
		}
	})
}

// fuzzRunOn runs prog on engine e and collects the result; a panic
// fails the test with the engine named.
func fuzzRunOn(t *testing.T, prog *isa.Program, cfg cpu.Config, e cpu.Engine) (r fuzzRun) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s engine panicked: %v\n%s", e, p, debug.Stack())
		}
	}()
	cfg.Engine = e
	c, err := cpu.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunContext(context.Background())
	r = fuzzRun{Stats: st, Output: c.Output, OutputStr: c.OutputStr}
	for i := range r.Regs {
		r.Regs[i] = c.Reg(isa.Reg(i))
	}
	var se *cpu.SimError
	if errors.As(err, &se) {
		r.Code, r.PC, r.Cycle = se.Code, se.PC, se.Cycle
	} else if err != nil {
		t.Fatalf("%s engine: %v", e, err)
	}
	return r
}
