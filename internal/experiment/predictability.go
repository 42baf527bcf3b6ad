package experiment

import (
	"fmt"

	"asbr/internal/obs"
	"asbr/internal/predict"
	"asbr/internal/runner"
)

// This file is the branch-predictability scenario: every static
// conditional branch of a benchmark is classified by which mechanism —
// a conventional predictor, a modern dynamic predictor from the zoo, or
// ASBR folding — can actually handle its outcome stream. The headline
// number is the fraction of best-dynamic mispredictions that ASBR
// folding removes: cycles no predictor in the zoo recovers, which is
// the paper's case for algorithm-specific resolution restated against
// much stronger dynamic competition than its 2001 baselines.

// Predictability classes, in precedence order.
const (
	ClassPredictable   = "predictable"   // a baseline (bimodal/gshare) already handles it
	ClassTAGERescued   = "tage-rescued"  // baselines fail, TAGE's tagged history handles it
	ClassLoopRescued   = "loop-rescued"  // only the loop predictor's trip counter handles it
	ClassASBRFolded    = "asbr-folded"   // no dynamic predictor handles it, but ASBR folds it
	ClassUnpredictable = "unpredictable" // intrinsically unpredictable and not foldable
)

// predictableAcc is the accuracy at which a shadow predictor is deemed
// to "handle" a branch (19 of 20 outcomes right).
const predictableAcc = 0.95

// foldedFracMin is the fold rate at which ASBR is deemed to handle a
// branch: the front-end must resolve at least half its executions.
const foldedFracMin = 0.5

// predictabilityShadowSpecs maps each shadow role onto its predictor
// spec. The roles drive classification; the specs are resolved through
// the open predictor registry, so the zoo the scenario competes against
// is exactly the zoo every CLI accepts.
type shadowSpec struct {
	Role string
	Spec string
}

func predictabilityShadows() []shadowSpec {
	return []shadowSpec{
		{Role: "bimodal", Spec: "bimodal"},
		{Role: "gshare", Spec: "gshare"},
		{Role: "tage", Spec: "tage"},
		{Role: "loop", Spec: "loop"},
		{Role: "tageloop", Spec: "tageloop"},
	}
}

// predictabilityZoo builds the shadow zoo at power-on, one member per
// role in predictabilityShadows order. The loop shadow's bimodal
// fallback is the bimodal shadow, and the TAGE-loop shadow's TAGE and
// loop table are the tage and loop shadows', so the zoo trains four
// components per branch for its five members.
func predictabilityZoo() (*predict.Zoo, error) {
	roles := predictabilityShadows()
	specs := make([]string, len(roles))
	for i, r := range roles {
		specs[i] = r.Spec
	}
	return predict.NewZoo(specs...)
}

// Predictability replays the branch stream of the paper's folded ASBR
// machine, once per benchmark, into a branch-accounting observer:
// every dynamic outcome goes through the shadow zoo (bimodal, gshare,
// TAGE, loop, TAGE+loop), folded executions included, and each static
// branch is classified by the weakest mechanism that handles it. The
// machine's run is Figure 11's bi-512 cell, which records the stream,
// so the table simulates nothing a sweep has already run. Each
// benchmark is one pool job, and rows aggregate in canonical benchmark
// order, so the table is byte-identical at any worker count.
func (s *Sweep) Predictability() ([]PredictabilityJSON, error) {
	benches := s.opt.benches()
	rows, errs := runner.MapErrs(s.opt.Parallel, benches, func(_ int, bench string) (PredictabilityJSON, error) {
		return s.predictability(bench)
	})
	return rows, annotate(rows, errs, func(i int, e *CellError) PredictabilityJSON {
		return PredictabilityJSON{Benchmark: benches[i], Error: e}
	})
}

// predictability builds one benchmark's classification.
func (s *Sweep) predictability(bench string) (PredictabilityJSON, error) {
	entries, err := s.bitEntries(bench)
	if err != nil {
		return PredictabilityJSON{}, err
	}

	// A fresh zoo per benchmark: the account must not leak training
	// across benchmarks, and fresh shadows keep the row independent of
	// job scheduling.
	zoo, err := predictabilityZoo()
	if err != nil {
		return PredictabilityJSON{}, fmt.Errorf("%s: shadows: %w", bench, err)
	}
	roles := predictabilityShadows()
	roleName := make(map[string]string, len(roles))
	nameRole := make(map[string]string, len(roles))
	for i, name := range zoo.Names() {
		roleName[roles[i].Role] = name
		nameRole[name] = roles[i].Role
	}

	// The folded ASBR machine with the paper's bimodal-512 auxiliary:
	// the live predictor only shapes timing, while the observer's
	// outcome stream and the BDT's fold decisions are architectural, so
	// the account is the same one every Figure 11 configuration sees.
	acct := obs.NewBranchAccounting(uint64(2+ExtraMispredictCycles), zoo)
	pcs := make([]uint32, len(entries))
	for i, e := range entries {
		pcs[i] = e.PC
	}
	acct.MarkFoldEligible(pcs)
	r, err := s.asbrRun(bench, paperAux)
	if err != nil {
		return PredictabilityJSON{}, fmt.Errorf("%s: %w", bench, err)
	}
	r.branches.replay(acct)

	row := PredictabilityJSON{
		Benchmark: bench,
		Shadows:   roleName,
		Classes:   make(map[string]int),
	}
	for _, a := range acct.Stats() {
		b := classify(a, acct.ShadowNames(), nameRole, acct.FlushPenalty)
		row.Rows = append(row.Rows, b)
		row.Classes[b.Class]++
		row.BestMispredicts += b.Mispredicts
		row.RescuedMispredicts += b.Rescued
		row.RescuedCycles += b.Rescued * acct.FlushPenalty
	}
	if row.BestMispredicts > 0 {
		row.RescuedFrac = float64(row.RescuedMispredicts) / float64(row.BestMispredicts)
	}
	return row, nil
}

// classify turns one branch account into its verdict. Precedence runs
// from the cheapest mechanism to the most specialized: a branch a
// baseline already predicts is "predictable" even if TAGE also nails
// it, and "asbr-folded" is reserved for branches no dynamic shadow
// reaches — the class the headline metric counts.
func classify(a obs.BranchAcct, shadowNames []string, nameRole map[string]string, flushPenalty uint64) PredictabilityBranchJSON {
	b := PredictabilityBranchJSON{
		PC:           a.PC,
		Exec:         a.Execs,
		FoldEligible: a.FoldEligible,
		Accuracy:     make(map[string]float64, len(shadowNames)),
	}
	if a.Execs > 0 {
		b.Taken = float64(a.Taken) / float64(a.Execs)
		b.FoldRate = float64(a.Folded) / float64(a.Execs)
	}
	for i, name := range shadowNames {
		b.Accuracy[nameRole[name]] = a.Accuracy(i)
	}
	// Best dynamic shadow: fewest total misses, ties broken by replay
	// order so the verdict is deterministic.
	if best := a.Best(); best >= 0 {
		b.Best = nameRole[shadowNames[best]]
		b.BestAccuracy = a.Accuracy(best)
		b.Mispredicts = a.Mispredicts[best]
		b.Rescued = a.MispredictsFolded[best]
	}
	b.CycleCost = b.Mispredicts * flushPenalty

	switch {
	case b.Accuracy["bimodal"] >= predictableAcc || b.Accuracy["gshare"] >= predictableAcc:
		b.Class = ClassPredictable
	case b.Accuracy["tage"] >= predictableAcc:
		b.Class = ClassTAGERescued
	case b.Accuracy["loop"] >= predictableAcc || b.Accuracy["tageloop"] >= predictableAcc:
		b.Class = ClassLoopRescued
	case b.FoldEligible && b.FoldRate >= foldedFracMin:
		b.Class = ClassASBRFolded
	default:
		b.Class = ClassUnpredictable
	}
	return b
}
