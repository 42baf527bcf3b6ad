package experiment

import (
	"errors"
	"testing"
	"time"

	"asbr/internal/cpu"
	"asbr/internal/workload"
)

// Small inputs keep the full-suite runtime reasonable while preserving
// every qualitative relationship the assertions check.
var testOpt = Options{Samples: 1024, Seed: 1}

func TestFig6Shape(t *testing.T) {
	rows, err := NewSweep(testOpt).Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 4 benchmarks x 3 predictors", len(rows))
	}
	byKey := map[string]Fig6JSON{}
	for _, r := range rows {
		byKey[r.Benchmark+"/"+r.Predictor] = r
	}
	for _, b := range workload.Names() {
		nt := byKey[b+"/not taken"]
		bi := byKey[b+"/bimodal-2048+btb2048"]
		gs := byKey[b+"/gshare-11/2048+btb2048"]
		// Paper Fig. 6 shape: dynamic predictors beat no prediction in
		// cycles and accuracy; not-taken accuracy is poor (<=55%).
		if !(nt.Cycles > bi.Cycles && nt.Cycles > gs.Cycles) {
			t.Errorf("%s: not-taken should cost the most cycles: nt=%d bi=%d gs=%d",
				b, nt.Cycles, bi.Cycles, gs.Cycles)
		}
		if nt.Accuracy > 0.55 {
			t.Errorf("%s: not-taken accuracy %.2f suspiciously high", b, nt.Accuracy)
		}
		if bi.Accuracy < 0.6 || gs.Accuracy < 0.6 {
			t.Errorf("%s: dynamic predictor accuracy too low: bi=%.2f gs=%.2f", b, bi.Accuracy, gs.Accuracy)
		}
		if bi.CPI <= 1.0 || nt.CPI <= bi.CPI {
			t.Errorf("%s: CPI ordering wrong: nt=%.2f bi=%.2f", b, nt.CPI, bi.CPI)
		}
	}
	// G.721 predicts better than ADPCM overall (paper: 91%% vs ~70%%).
	if byKey["g721-enc/bimodal-2048+btb2048"].Accuracy <= byKey["adpcm-enc/bimodal-2048+btb2048"].Accuracy {
		t.Error("G.721 should be more predictable than ADPCM under bimodal")
	}
}

func TestSelectedBranchesShape(t *testing.T) {
	want := BITSizes()
	s := NewSweep(testOpt)
	for _, b := range workload.Names() {
		tab, err := s.SelectedBranches("", b)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 || len(tab.Rows) > want[b] {
			t.Fatalf("%s: %d selected branches, want 1..%d", b, len(tab.Rows), want[b])
		}
		// Paper Figs 7/9/10: the selection contains genuinely hard
		// branches (accuracy near 0.5 for bimodal on at least one).
		hard := false
		for _, r := range tab.Rows {
			if r.Accuracy["bimodal-2048"] < 0.7 && r.Exec >= uint64(testOpt.Samples/2) {
				hard = true
			}
			if r.Exec == 0 {
				t.Errorf("%s: selected branch with zero executions", b)
			}
		}
		if !hard {
			t.Errorf("%s: no hard branch among the selected set", b)
		}
	}
}

// TestFig11Shape is the headline reproduction check: ASBR with a
// quarter-size auxiliary predictor beats the full-size bimodal-2048
// baseline on every benchmark, and the ADPCM gains exceed the G.721
// gains, exactly as in the paper's Figure 11.
func TestFig11Shape(t *testing.T) {
	rows, err := NewSweep(testOpt).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	imp := map[string]float64{}
	for _, r := range rows {
		if r.Improvement <= 0 {
			t.Errorf("%s/%s: no improvement (%.2f%%, %d vs %d)",
				r.Benchmark, r.Aux, 100*r.Improvement, r.Cycles, r.Baseline)
		}
		if r.Folds == 0 {
			t.Errorf("%s/%s: nothing folded", r.Benchmark, r.Aux)
		}
		imp[r.Benchmark+"/"+r.Aux] = r.Improvement
	}
	// bi-256 ~ bi-512 (the paper's area-reduction claim: quarter-size
	// predictor without losing the win).
	for _, b := range workload.Names() {
		d := imp[b+"/bi-512"] - imp[b+"/bi-256"]
		if d < -0.01 || d > 0.02 {
			t.Errorf("%s: bi-256 (%.3f) should track bi-512 (%.3f)", b, imp[b+"/bi-256"], imp[b+"/bi-512"])
		}
	}
	// ADPCM improves more than G.721 under the bimodal auxiliaries
	// (paper: 20-22%% vs 6-7%%).
	if imp["adpcm-enc/bi-512"] <= imp["g721-enc/bi-512"] {
		t.Errorf("adpcm-enc (%.3f) should improve more than g721-enc (%.3f)",
			imp["adpcm-enc/bi-512"], imp["g721-enc/bi-512"])
	}
}

func TestThresholdAblation(t *testing.T) {
	rows, err := NewSweep(testOpt).ThresholdAblation(workload.G721Encode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Coverage is monotone in the threshold (paper §5.2), and the
	// unaugmented WB design (threshold 4) strictly loses folds on
	// G.721's distance-3 selections.
	if !(rows[0].Folds >= rows[1].Folds && rows[1].Folds >= rows[2].Folds) {
		t.Errorf("fold coverage not monotone: EX=%d MEM=%d WB=%d",
			rows[0].Folds, rows[1].Folds, rows[2].Folds)
	}
	if rows[2].Folds >= rows[0].Folds {
		t.Errorf("threshold effect invisible: EX=%d WB=%d", rows[0].Folds, rows[2].Folds)
	}
	if rows[0].Folds == 0 {
		t.Error("threshold-2 design folded nothing")
	}
}

func TestBITSizeAblation(t *testing.T) {
	rows, err := NewSweep(testOpt).BITSizeAblation(workload.G721Encode, []int{1, 4, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More entries never fold less.
	for i := 1; i < len(rows); i++ {
		if rows[i].Folds < rows[i-1].Folds {
			t.Errorf("folds decreased with BIT size: %+v", rows)
		}
	}
	// Diminishing returns: 16 -> 32 gains less than 1 -> 16.
	gainSmall := int64(rows[0].Cycles) - int64(rows[2].Cycles)
	gainLarge := int64(rows[2].Cycles) - int64(rows[3].Cycles)
	if gainLarge > gainSmall {
		t.Errorf("no diminishing returns: 1->16 saves %d, 16->32 saves %d", gainSmall, gainLarge)
	}
}

func TestSchedulingAblation(t *testing.T) {
	// ADPCM: the automatic pass increases fold coverage and improvement
	// over no scheduling (paper §5.1's claim at the compiler level).
	s := NewSweep(testOpt)
	rows, err := s.SchedulingAblation(workload.ADPCMEncode)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]SchedulingJSON{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	if byLabel["compiler pass"].Folds <= byLabel["none"].Folds {
		t.Errorf("compiler pass did not increase folds: none=%d pass=%d",
			byLabel["none"].Folds, byLabel["compiler pass"].Folds)
	}
	if byLabel["compiler pass"].Improvement <= byLabel["none"].Improvement {
		t.Errorf("compiler pass did not increase improvement: none=%.3f pass=%.3f",
			byLabel["none"].Improvement, byLabel["compiler pass"].Improvement)
	}

	// G.721: the manual source scheduling (software-pipelined quan,
	// paper Figure 5) is what makes the highest-frequency branch
	// foldable at all.
	rows, err = s.SchedulingAblation(workload.G721Encode)
	if err != nil {
		t.Fatal(err)
	}
	byLabel = map[string]SchedulingJSON{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	if byLabel["manual+compiler"].Folds <= 2*byLabel["none"].Folds {
		t.Errorf("manual scheduling should multiply G.721 folds: none=%d manual+compiler=%d",
			byLabel["none"].Folds, byLabel["manual+compiler"].Folds)
	}
	if byLabel["manual+compiler"].Improvement <= byLabel["none"].Improvement {
		t.Errorf("manual scheduling should raise G.721 improvement: none=%.3f manual=%.3f",
			byLabel["none"].Improvement, byLabel["manual+compiler"].Improvement)
	}
}

func TestValidityAblation(t *testing.T) {
	rows, err := NewSweep(testOpt).ValidityAblation(workload.ADPCMEncode)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	safe, unsafe := rows[0], rows[1]
	if !safe.OutputCorrect {
		t.Error("safe engine produced wrong output")
	}
	if unsafe.Folds < safe.Folds {
		t.Errorf("unsafe bound folds (%d) below safe folds (%d)", unsafe.Folds, safe.Folds)
	}
	// The unsafe run may or may not corrupt output on this input; the
	// point of the row is the coverage bound, which must be reported.
	t.Logf("safe: folds=%d fallbacks=%d; unsafe: folds=%d correct=%v",
		safe.Folds, safe.Fallbacks, unsafe.Folds, unsafe.OutputCorrect)
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.Samples != 4096 || o.Seed != 1 || o.Update != cpu.StageMEM {
		t.Fatalf("defaults = %+v", o)
	}
	if o.MinDistance() != 3 {
		t.Fatalf("MEM threshold = %d", o.MinDistance())
	}
	if (Options{Update: cpu.StageEX}).MinDistance() != 2 {
		t.Fatal("EX threshold wrong")
	}
	if (Options{Update: cpu.StageWB}).MinDistance() != 4 {
		t.Fatal("WB threshold wrong")
	}
}

// TestPowerAreaShape checks the abstract's power and area claims: with
// ASBR, fewer instructions pass through the pipeline, wrong-path work
// shrinks, total modeled energy drops, and the branch hardware is far
// smaller — all simultaneously with the Figure 11 speedups.
func TestPowerAreaShape(t *testing.T) {
	rows, err := NewSweep(testOpt).PowerArea()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		base, asbr := rows[i], rows[i+1]
		if base.Benchmark != asbr.Benchmark {
			t.Fatalf("row pairing broken: %+v %+v", base, asbr)
		}
		if asbr.Instructions >= base.Instructions {
			t.Errorf("%s: folding did not reduce committed instructions: %d vs %d",
				base.Benchmark, asbr.Instructions, base.Instructions)
		}
		if asbr.WrongPath >= base.WrongPath {
			t.Errorf("%s: folding did not reduce wrong-path work: %d vs %d",
				base.Benchmark, asbr.WrongPath, base.WrongPath)
		}
		if asbr.Energy.Total >= base.Energy.Total {
			t.Errorf("%s: modeled energy did not drop: %.0f vs %.0f",
				base.Benchmark, asbr.Energy.Total, base.Energy.Total)
		}
		if float64(asbr.AreaBits) > 0.35*float64(base.AreaBits) {
			t.Errorf("%s: area not reduced enough: %d vs %d bits",
				base.Benchmark, asbr.AreaBits, base.AreaBits)
		}
		if asbr.Cycles >= base.Cycles {
			t.Errorf("%s: the power win must not cost performance: %d vs %d",
				base.Benchmark, asbr.Cycles, base.Cycles)
		}
	}
}

// TestMotivationSeedSweep requires the hot-branch identification to
// find exactly Figure 1's five every-iteration branches on every seed,
// so `-table motivation` cannot fail on an unlucky seed. B3 runs about
// n/2 times at any n, so whether it crosses a count threshold depends
// on the seed, not the size: the smallest size covers it.
func TestMotivationSeedSweep(t *testing.T) {
	const n = 64
	for seed := int64(1); seed <= 20; seed++ {
		res, err := NewSweep(Options{Samples: n, Seed: seed}).Motivation()
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", n, seed, err)
		}
		if !res.AccMatch {
			t.Errorf("n=%d seed=%d: folding changed the program result", n, seed)
		}
	}
}

// TestMotivationTimeout requires the motivation table's two machines
// to run under the sweep's wall-clock budget: a 1 ns timeout cancels
// the first of them.
func TestMotivationTimeout(t *testing.T) {
	_, err := NewSweep(Options{Samples: 64, Seed: 1, Timeout: time.Nanosecond}).Motivation()
	var se *cpu.SimError
	if !errors.As(err, &se) || se.Code != cpu.ErrCanceled {
		t.Fatalf("Motivation under a 1ns timeout: err %v, want a canceled SimError", err)
	}
}

// TestMotivationFigure1 reproduces §3: B4 (data-correlated with B1) is
// better predicted by gshare than bimodal but never perfectly; B5
// (input-dependent) hovers near 50% for every statistical predictor;
// ASBR folds both essentially always, with identical results.
func TestMotivationFigure1(t *testing.T) {
	res, err := NewSweep(Options{Samples: 4096, Seed: 9}).Motivation()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]MotivationRowJSON{}
	for _, r := range res.Rows {
		rows[r.Name] = r
	}
	b4, b5 := rows["B4"], rows["B5"]
	// B4: the correlation exists, so gshare beats bimodal...
	if b4.GShare <= b4.Bimodal+0.05 {
		t.Errorf("gshare should exploit the B1->B4 correlation: gshare=%.2f bimodal=%.2f", b4.GShare, b4.Bimodal)
	}
	// ...but the intervening B2/B3 cloud the history: not perfect.
	if b4.GShare > 0.99 {
		t.Errorf("B4 gshare accuracy %.3f suspiciously perfect; B3 should cloud the history", b4.GShare)
	}
	if b4.Bimodal > 0.65 {
		t.Errorf("B4 should be hard for bimodal: %.2f", b4.Bimodal)
	}
	// B5: input data, unpredictable for everyone.
	if b5.Bimodal > 0.6 || b5.GShare > 0.6 {
		t.Errorf("B5 should be near 50%% for all predictors: bi=%.2f gs=%.2f", b5.Bimodal, b5.GShare)
	}
	// ASBR folds both (their predicates are loop-local register values
	// defined well before the branches). Rates may exceed 1: the BIT
	// is searched on every fetch, including wrong-path ones.
	if b4.FoldRate < 0.95 || b5.FoldRate < 0.95 {
		t.Errorf("ASBR should fold B4/B5 nearly always: B4=%.2f B5=%.2f", b4.FoldRate, b5.FoldRate)
	}
	if !res.AccMatch {
		t.Error("folding changed the program result")
	}
	if res.ASBRCycles >= res.BaselineCycles {
		t.Errorf("no cycle win: %d vs %d", res.ASBRCycles, res.BaselineCycles)
	}
	t.Logf("B4: bi=%.2f gs=%.2f fold=%.2f | B5: bi=%.2f gs=%.2f fold=%.2f | cycles %d -> %d",
		b4.Bimodal, b4.GShare, b4.FoldRate, b5.Bimodal, b5.GShare, b5.FoldRate,
		res.BaselineCycles, res.ASBRCycles)
}
