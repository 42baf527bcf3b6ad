// Benchmark harness regenerating every table and figure of the
// paper's evaluation section as testing.B benchmarks:
//
//	go test -bench=Fig6 -benchmem           # Figure 6 rows
//	go test -bench=Fig11 -benchmem          # Figure 11 rows
//	go test -bench=. -benchmem              # everything
//
// Wall-clock time measures the simulator itself; the paper's numbers
// are attached as custom metrics: simulated cycles (sim_cycles), CPI
// (sim_cpi), prediction accuracy (sim_acc_pct), improvement over the
// paper's comparison baseline (improv_pct), and fold counts (folds).
// Use cmd/asbr-tables for the formatted tables.
package asbr_test

import (
	"runtime"
	"testing"

	"asbr/internal/core"
	"asbr/internal/cpu"
	"asbr/internal/experiment"
	"asbr/internal/isa"
	"asbr/internal/mem"
	"asbr/internal/predict"
	"asbr/internal/profile"
	"asbr/internal/workload"
)

// benchSamples keeps each simulation short enough for reasonable
// bench times while preserving every qualitative relationship.
const benchSamples = 1024

func platform(unit *predict.Unit) cpu.Config {
	return cpu.Config{
		ICache:                mem.DefaultICache(),
		DCache:                mem.DefaultDCache(),
		Branch:                unit,
		ExtraMispredictCycles: experiment.ExtraMispredictCycles,
	}
}

// built caches compiled benchmarks and inputs across sub-benchmarks.
type built struct {
	prog *isa.Program
	in   []int32
}

var buildCache = map[string]built{}

func buildBench(b *testing.B, name string) built {
	b.Helper()
	if c, ok := buildCache[name]; ok {
		return c
	}
	prog, err := workload.Build(name, true)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.Input(name, benchSamples, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := built{prog, in}
	buildCache[name] = c
	return c
}

// BenchmarkFig6 reproduces Figure 6: each sub-benchmark is one
// (application, baseline predictor) cell.
func BenchmarkFig6(b *testing.B) {
	units := []struct {
		label string
		mk    func() *predict.Unit
	}{
		{"not-taken", predict.BaselineNotTaken},
		{"bimodal-2048", predict.BaselineBimodal},
		{"gshare", predict.BaselineGShare},
	}
	for _, bench := range workload.Names() {
		for _, u := range units {
			b.Run(bench+"/"+u.label, func(b *testing.B) {
				bu := buildBench(b, bench)
				var st cpu.Stats
				for i := 0; i < b.N; i++ {
					res, err := workload.Run(bu.prog, platform(u.mk()), bu.in, benchSamples)
					if err != nil {
						b.Fatal(err)
					}
					st = res.Stats
				}
				b.ReportMetric(float64(st.Cycles), "sim_cycles")
				b.ReportMetric(st.CPI(), "sim_cpi")
				b.ReportMetric(100*st.PredAccuracy(), "sim_acc_pct")
			})
		}
	}
}

// benchBranchTable reproduces one of the selected-branch tables
// (Figures 7, 9, 10): the metric is the number of selected branches
// and the total dynamic executions they cover.
func benchBranchTable(b *testing.B, bench string) {
	opt := experiment.Options{Samples: benchSamples, Seed: 1}
	var tab experiment.BranchTable
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiment.SelectedBranches(bench, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	var exec uint64
	for _, r := range tab.Rows {
		exec += r.Exec
	}
	b.ReportMetric(float64(len(tab.Rows)), "sel_branches")
	b.ReportMetric(float64(exec), "sel_dyn_exec")
}

// BenchmarkFig7_G721EncodeBranches reproduces Figure 7.
func BenchmarkFig7_G721EncodeBranches(b *testing.B) { benchBranchTable(b, workload.G721Encode) }

// BenchmarkFig9_ADPCMEncodeBranches reproduces Figure 9.
func BenchmarkFig9_ADPCMEncodeBranches(b *testing.B) { benchBranchTable(b, workload.ADPCMEncode) }

// BenchmarkFig10_ADPCMDecodeBranches reproduces Figure 10.
func BenchmarkFig10_ADPCMDecodeBranches(b *testing.B) { benchBranchTable(b, workload.ADPCMDecode) }

// fig11Setup holds the per-benchmark profile/selection state shared by
// the Figure 11 sub-benchmarks.
type fig11Setup struct {
	entries []core.BITEntry
	baseNT  uint64
	baseBi  uint64
}

var fig11Cache = map[string]fig11Setup{}

func setupFig11(b *testing.B, bench string) fig11Setup {
	b.Helper()
	if s, ok := fig11Cache[bench]; ok {
		return s
	}
	bu := buildBench(b, bench)
	prof := profile.New(predict.Must(predict.NewBimodal(512)))
	cfg := platform(predict.BaselineBimodal())
	cfg.Observer = prof
	if _, err := workload.Run(bu.prog, cfg, bu.in, benchSamples); err != nil {
		b.Fatal(err)
	}
	cands, err := profile.Select(bu.prog, prof, profile.SelectOptions{
		Aux: "bimodal-512", MinDistance: 3, K: experiment.BITSizes()[bench],
		MinCount: benchSamples / 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	entries, err := profile.BuildBITFromCandidates(bu.prog, cands)
	if err != nil {
		b.Fatal(err)
	}
	nt, err := workload.Run(bu.prog, platform(predict.BaselineNotTaken()), bu.in, benchSamples)
	if err != nil {
		b.Fatal(err)
	}
	bi, err := workload.Run(bu.prog, platform(predict.BaselineBimodal()), bu.in, benchSamples)
	if err != nil {
		b.Fatal(err)
	}
	s := fig11Setup{entries: entries, baseNT: nt.Stats.Cycles, baseBi: bi.Stats.Cycles}
	fig11Cache[bench] = s
	return s
}

// BenchmarkFig11 reproduces Figure 11: each sub-benchmark is one
// (application, auxiliary predictor) cell of the ASBR results table.
func BenchmarkFig11(b *testing.B) {
	auxes := []struct {
		label string
		mk    func() *predict.Unit
	}{
		{"not-taken", predict.AuxNotTaken},
		{"bi-512", predict.AuxBimodal512},
		{"bi-256", predict.AuxBimodal256},
	}
	for _, bench := range workload.Names() {
		for _, aux := range auxes {
			b.Run(bench+"/"+aux.label, func(b *testing.B) {
				bu := buildBench(b, bench)
				setup := setupFig11(b, bench)
				var st cpu.Stats
				var folds uint64
				for i := 0; i < b.N; i++ {
					eng := core.NewEngine(core.DefaultConfig())
					if err := eng.Load(setup.entries); err != nil {
						b.Fatal(err)
					}
					cfg := platform(aux.mk())
					cfg.Fold = eng
					res, err := workload.Run(bu.prog, cfg, bu.in, benchSamples)
					if err != nil {
						b.Fatal(err)
					}
					st = res.Stats
					folds = eng.Stats().Folds
				}
				base := setup.baseBi
				if aux.label == "not-taken" {
					base = setup.baseNT
				}
				b.ReportMetric(float64(st.Cycles), "sim_cycles")
				b.ReportMetric(100*(1-float64(st.Cycles)/float64(base)), "improv_pct")
				b.ReportMetric(float64(folds), "folds")
			})
		}
	}
}

// BenchmarkAblationThreshold sweeps the BDT update point (§5.2).
func BenchmarkAblationThreshold(b *testing.B) {
	opt := experiment.Options{Samples: benchSamples, Seed: 1}
	for _, stage := range []struct {
		label string
		st    cpu.Stage
	}{{"EX-thr2", cpu.StageEX}, {"MEM-thr3", cpu.StageMEM}, {"WB-thr4", cpu.StageWB}} {
		b.Run(stage.label, func(b *testing.B) {
			var rows []experiment.ThresholdRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiment.ThresholdAblation(workload.G721Encode, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows {
				if r.Update == stage.st {
					b.ReportMetric(float64(r.Cycles), "sim_cycles")
					b.ReportMetric(float64(r.Folds), "folds")
				}
			}
		})
	}
}

// BenchmarkAblationBITSize sweeps the BIT capacity.
func BenchmarkAblationBITSize(b *testing.B) {
	opt := experiment.Options{Samples: benchSamples, Seed: 1}
	var rows []experiment.BITSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.BITSizeAblation(workload.G721Encode, opt, []int{1, 4, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Entries == 16 {
			b.ReportMetric(float64(r.Cycles), "sim_cycles_bit16")
			b.ReportMetric(float64(r.Folds), "folds_bit16")
		}
	}
}

// BenchmarkAblationScheduling compares the §5.1 scheduling levels.
func BenchmarkAblationScheduling(b *testing.B) {
	opt := experiment.Options{Samples: benchSamples, Seed: 1}
	var rows []experiment.SchedulingRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.SchedulingAblation(workload.ADPCMEncode, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Label == "manual+compiler" {
			b.ReportMetric(float64(r.Folds), "folds_scheduled")
		}
		if r.Label == "none" {
			b.ReportMetric(float64(r.Folds), "folds_unscheduled")
		}
	}
}

// BenchmarkAblationValidity compares safe vs unsafe folding.
func BenchmarkAblationValidity(b *testing.B) {
	opt := experiment.Options{Samples: benchSamples, Seed: 1}
	var rows []experiment.ValidityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.ValidityAblation(workload.ADPCMEncode, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Folds), "folds_safe")
	b.ReportMetric(float64(rows[1].Folds), "folds_unsafe_bound")
}

// benchSweep runs a complete Figure 11 sweep (12 simulation jobs plus
// the shared profile/selection/baseline artifacts) on a fresh engine
// with the given worker count.
func benchSweep(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := experiment.NewSweep(experiment.Options{Samples: benchSamples, Seed: 1, Parallel: parallel})
		if _, err := s.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerial is the single-worker reference for the
// concurrent experiment engine.
func BenchmarkSweepSerial(b *testing.B) {
	benchSweep(b, 1)
	b.ReportMetric(1, "workers")
}

// BenchmarkSweepParallel runs the same sweep on GOMAXPROCS workers;
// compare ns/op against BenchmarkSweepSerial for the engine's speedup
// (≥2x on a 4-core host; the two are identical on a single core). The
// outputs are byte-identical either way — see TestParallelDeterminism.
func BenchmarkSweepParallel(b *testing.B) {
	benchSweep(b, 0)
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkExtensionRAS measures the return-address-stack extension on
// the call-heavy G.721 encoder (an optional feature beyond the paper's
// platform; the metric pair shows the cycles it saves).
func BenchmarkExtensionRAS(b *testing.B) {
	bu := buildBench(b, workload.G721Encode)
	var with, without uint64
	for i := 0; i < b.N; i++ {
		cfg := platform(predict.BaselineBimodal())
		res, err := workload.Run(bu.prog, cfg, bu.in, benchSamples)
		if err != nil {
			b.Fatal(err)
		}
		without = res.Stats.Cycles
		cfg = platform(predict.BaselineBimodal())
		cfg.RAS = predict.NewRAS(8)
		res, err = workload.Run(bu.prog, cfg, bu.in, benchSamples)
		if err != nil {
			b.Fatal(err)
		}
		with = res.Stats.Cycles
	}
	b.ReportMetric(float64(without), "sim_cycles_noras")
	b.ReportMetric(float64(with), "sim_cycles_ras")
	b.ReportMetric(100*(1-float64(with)/float64(without)), "ras_improv_pct")
}
