// System-level fuzz over generated MiniC programs. The program
// generator lives in internal/corpus (it grew out of this file's
// ad-hoc progGen); these tests draw from its seeded sequence, so a
// failure here reproduces with `asbr-corpus gen -seed <seed> -dump -`.
// The external test package breaks the import cycle: corpus imports
// workload for record replay.
package workload_test

import (
	"testing"

	"asbr/internal/cc"
	"asbr/internal/core"
	"asbr/internal/corpus"
	"asbr/internal/cpu"
	"asbr/internal/mem"
	"asbr/internal/predict"
	"asbr/internal/sched"
)

// TestFuzzFoldEquivalence is the system-level fuzz: generated MiniC
// programs are compiled, scheduled, and run three ways — baseline,
// ASBR with every foldable branch loaded, ASBR at each update point —
// and the final global state must be identical in all of them.
func TestFuzzFoldEquivalence(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	gen := corpus.MustGen(2001, corpus.Knobs{})
	var totalFolds uint64
	for trial := 0; trial < trials; trial++ {
		src := gen.Program()
		prog, err := cc.CompileToProgram(src)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		prog, _, _ = sched.Schedule(prog)

		readGlobals := func(c *cpu.CPU) []int32 {
			var out []int32
			for _, sym := range []string{"a", "b", "c", "d", "e"} {
				addr, ok := prog.Symbol(sym)
				if !ok {
					t.Fatalf("trial %d: missing %s", trial, sym)
				}
				out = append(out, int32(c.Mem().LoadWord(addr)))
			}
			arr, _ := prog.Symbol("arr")
			for i := 0; i < 8; i++ {
				out = append(out, int32(c.Mem().LoadWord(arr+uint32(4*i))))
			}
			return out
		}

		run := func(fold *core.Engine, up cpu.Stage) []int32 {
			c := cpu.MustNew(cpu.Config{
				ICache:    mem.DefaultICache(),
				DCache:    mem.DefaultDCache(),
				Branch:    predict.AuxBimodal512(),
				Fold:      fold,
				BDTUpdate: up,
				MaxCycles: 50_000_000,
			}, prog)
			if _, err := c.Run(); err != nil {
				t.Fatalf("trial %d: run: %v\n%s", trial, err, src)
			}
			return readGlobals(c)
		}

		base := run(nil, cpu.StageMEM)
		entries, err := core.BuildBIT(prog, core.FoldableBranches(prog))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(entries) == 0 {
			continue // nothing foldable in this mutation; rare
		}
		for _, up := range []cpu.Stage{cpu.StageEX, cpu.StageMEM, cpu.StageWB} {
			eng := core.NewEngine(core.Config{BITEntries: len(entries), TrackValidity: true})
			if err := eng.Load(entries); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got := run(eng, up)
			totalFolds += eng.Stats().Folds
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("trial %d (update %v): global %d differs: %d vs %d\nfolds=%d fallbacks=%d\n%s",
						trial, up, i, got[i], base[i],
						eng.Stats().Folds, eng.Stats().Fallbacks, src)
				}
			}
		}
	}
	if totalFolds == 0 {
		t.Fatal("fuzz never folded a branch; the test is vacuous")
	}
	t.Logf("total folds across trials: %d", totalFolds)
}

// TestFuzzPredictorIndependence: the architectural result never
// depends on the predictor choice (predictors affect timing only).
func TestFuzzPredictorIndependence(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 5
	}
	gen := corpus.MustGen(77, corpus.Knobs{Stmts: 8})
	units := []func() *predict.Unit{
		predict.BaselineNotTaken,
		predict.BaselineBimodal,
		predict.BaselineGShare,
		func() *predict.Unit { return predict.NewUnit(predict.Taken{}, predict.Must(predict.NewBTB(64))) },
	}
	for _, spec := range []string{"tage", "tageloop"} {
		s, err := predict.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, func() *predict.Unit { return predict.Must(s.Build()) })
	}
	for trial := 0; trial < trials; trial++ {
		src := gen.Program()
		prog, err := cc.CompileToProgram(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		var ref []int32
		for ui, mk := range units {
			c := cpu.MustNew(cpu.Config{Branch: mk(), MaxCycles: 50_000_000}, prog)
			if _, err := c.Run(); err != nil {
				t.Fatalf("trial %d unit %d: %v\n%s", trial, ui, err, src)
			}
			var state []int32
			for _, sym := range []string{"a", "b", "c", "d", "e"} {
				addr, _ := prog.Symbol(sym)
				state = append(state, int32(c.Mem().LoadWord(addr)))
			}
			if ui == 0 {
				ref = state
				continue
			}
			for i := range ref {
				if state[i] != ref[i] {
					t.Fatalf("trial %d: predictor %d changed results\n%s", trial, ui, src)
				}
			}
		}
	}
}
