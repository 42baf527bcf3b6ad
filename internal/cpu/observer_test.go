package cpu_test

import (
	"context"
	"reflect"
	"testing"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/workload"
)

// hookRun is everything a branch observer must leave untouched.
type hookRun struct {
	Stats  cpu.Stats
	Core   core.Stats
	Output []int32
	Regs   [isa.NumRegs]int32
}

// TestObserversKeepCounters: a branch observer only reads the outcome
// stream. The experiment sweep's five-shadow profiler and the
// predictability table's branch accounting each leave the counters,
// the output and the registers of a plain and of an ASBR-folded
// machine exactly as the hookless run leaves them, on every engine.
// The sweep's run cache rests on this: its bimodal-2048 baseline run
// is the profiled run.
func TestObserversKeepCounters(t *testing.T) {
	const n = 32 // small: `go test -race ./internal/cpu` runs close to its 10-minute default timeout
	observers := []struct {
		label string
		mk    func(t *testing.T, foldPCs []uint32) cpu.BranchObserver
	}{
		{"profiler", func(*testing.T, []uint32) cpu.BranchObserver {
			return profile.New(
				predict.NotTaken{},
				predict.Must(predict.NewBimodal(2048)),
				predict.Must(predict.NewGShare(11, 2048)),
				predict.Must(predict.NewBimodal(512)),
				predict.Must(predict.NewBimodal(256)),
			)
		}},
		{"accounting", func(t *testing.T, foldPCs []uint32) cpu.BranchObserver {
			var shadows []obs.ShadowPredictor
			for _, spec := range []string{"bimodal", "gshare", "tage", "loop", "tageloop"} {
				sp, err := predict.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				u, err := sp.Build()
				if err != nil {
					t.Fatal(err)
				}
				shadows = append(shadows, u.Dir)
			}
			acct := obs.NewBranchAccounting(5, shadows...)
			acct.MarkFoldEligible(foldPCs)
			return acct
		}},
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			prog, in := buildBenchN(t, name, n)
			pcs := core.FoldableBranches(prog)
			if len(pcs) > core.DefaultBITEntries {
				pcs = pcs[:core.DefaultBITEntries]
			}
			entries, err := core.BuildBIT(prog, pcs)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range []cpu.Engine{cpu.EngineReference, cpu.EngineFast, cpu.EngineSuperblock} {
				for _, folded := range []bool{false, true} {
					run := func(o cpu.BranchObserver) hookRun {
						t.Helper()
						cfg := engCfg(e)
						cfg.Observer = o
						var eng *core.Engine
						if folded {
							eng = core.NewEngine(core.DefaultConfig())
							if err := eng.Load(entries); err != nil {
								t.Fatal(err)
							}
							cfg.Fold = eng
						}
						res, err := workload.RunContext(context.Background(), prog, cfg, in, n)
						if err != nil {
							t.Fatalf("%s folded=%t: %v", e, folded, err)
						}
						if got := res.CPU.ResolvedEngine(); got != e {
							t.Fatalf("%s folded=%t: resolved to %s", e, folded, got)
						}
						r := hookRun{Stats: res.Stats, Output: res.Output}
						if eng != nil {
							r.Core = eng.Stats()
						}
						for i := range r.Regs {
							r.Regs[i] = res.CPU.Reg(isa.Reg(i))
						}
						return r
					}
					want := run(nil)
					if folded && want.Core.Folds == 0 {
						t.Fatalf("%s: the folded machine folded nothing", e)
					}
					for _, o := range observers {
						if got := run(o.mk(t, pcs)); !reflect.DeepEqual(got, want) {
							t.Errorf("%s folded=%t: the %s changed the run:\nhookless %+v\nobserved %+v", e, folded, o.label, want, got)
						}
					}
				}
			}
		})
	}
}
