package obs

import "sort"

// ShadowPredictor is the minimal direction-predictor surface the
// branch-accounting observer replays outcomes through. It is satisfied
// structurally by every predict.DirectionPredictor, so the obs layer
// stays free of a predict dependency.
type ShadowPredictor interface {
	Predict(pc uint32) bool
	Update(pc uint32, taken bool)
	Name() string
	Reset()
}

// BranchAcct is the per-static-branch account: how often the branch
// executed, how it resolved, whether the ASBR front-end folded it, and
// how every shadow predictor would have fared on its outcome stream.
type BranchAcct struct {
	PC           uint32
	Execs        uint64 // dynamic executions
	Taken        uint64 // taken outcomes
	Folded       uint64 // executions resolved by ASBR folding
	FoldEligible bool   // statically fold-eligible (in the BIT fold set)
	// Mispredicts counts wrong shadow predictions per shadow name.
	Mispredicts map[string]uint64
	// MispredictsFolded counts the subset of Mispredicts that landed on
	// executions the ASBR front-end folded: mispredictions the fold
	// removed that the shadow would have paid for. This is the exact
	// joint account the rescued-misprediction metric needs — a per-branch
	// product of rates would only approximate it.
	MispredictsFolded map[string]uint64
	// CycleCost is the branch's misprediction cost under its best
	// shadow: min-over-shadows mispredicts times the flush penalty —
	// the cycles the best dynamic predictor in the zoo still loses on
	// this branch.
	CycleCost uint64
}

// BestMispredicts returns the lowest mispredict count any shadow
// achieved on this branch (0 when there are no shadows).
func (a *BranchAcct) BestMispredicts() uint64 {
	first := true
	var best uint64
	for _, m := range a.Mispredicts {
		if first || m < best {
			best, first = m, false
		}
	}
	return best
}

// Accuracy returns the named shadow's prediction accuracy on this
// branch (1.0 for an unexecuted branch).
func (a *BranchAcct) Accuracy(shadow string) float64 {
	if a.Execs == 0 {
		return 1
	}
	return 1 - float64(a.Mispredicts[shadow])/float64(a.Execs)
}

// BranchAccounting is a branch observer (attach it as
// cpu.Config.Observer) that builds the per-static-branch
// predictability account: every dynamic conditional-branch outcome is
// replayed through a set of shadow predictors (predict-then-update, the
// same discipline the pipeline applies to its live unit), keyed by
// static PC. Folded branches train the shadows too — the account asks
// "what would a dynamic predictor have done with this stream", which is
// exactly the counterfactual the predictability classification needs.
type BranchAccounting struct {
	shadows      []ShadowPredictor
	stats        map[uint32]*BranchAcct
	foldEligible map[uint32]bool
	// FlushPenalty is the cycle cost per misprediction used for
	// BranchAcct.CycleCost (the pipeline flush depth).
	FlushPenalty uint64
}

// NewBranchAccounting builds the observer. flushPenalty prices one
// misprediction in cycles; the shadows are owned by the observer from
// here on (Reset resets them).
func NewBranchAccounting(flushPenalty uint64, shadows ...ShadowPredictor) *BranchAccounting {
	return &BranchAccounting{
		shadows:      shadows,
		stats:        make(map[uint32]*BranchAcct),
		foldEligible: make(map[uint32]bool),
		FlushPenalty: flushPenalty,
	}
}

// OnBranch implements cpu.BranchObserver.
func (b *BranchAccounting) OnBranch(pc uint32, taken, folded bool) {
	a := b.stats[pc]
	if a == nil {
		a = &BranchAcct{
			PC:                pc,
			Mispredicts:       make(map[string]uint64, len(b.shadows)),
			MispredictsFolded: make(map[string]uint64, len(b.shadows)),
		}
		b.stats[pc] = a
	}
	a.Execs++
	if taken {
		a.Taken++
	}
	if folded {
		a.Folded++
	}
	for _, s := range b.shadows {
		if s.Predict(pc) != taken {
			a.Mispredicts[s.Name()]++
			if folded {
				a.MispredictsFolded[s.Name()]++
			}
		}
		s.Update(pc, taken)
	}
}

// MarkFoldEligible records the statically fold-eligible PCs (the BIT
// fold set) so the account distinguishes "could fold" from "did fold".
func (b *BranchAccounting) MarkFoldEligible(pcs []uint32) {
	for _, pc := range pcs {
		b.foldEligible[pc] = true
	}
}

// ShadowNames lists the shadow predictors in replay order.
func (b *BranchAccounting) ShadowNames() []string {
	out := make([]string, len(b.shadows))
	for i, s := range b.shadows {
		out[i] = s.Name()
	}
	return out
}

// Stats returns the per-branch accounts sorted by PC, with fold
// eligibility and cycle cost filled in. The order is deterministic, so
// downstream tables are byte-identical at any worker count.
func (b *BranchAccounting) Stats() []BranchAcct {
	out := make([]BranchAcct, 0, len(b.stats))
	for _, a := range b.stats {
		c := *a
		c.FoldEligible = b.foldEligible[a.PC]
		c.CycleCost = c.BestMispredicts() * b.FlushPenalty
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// Reset clears the accounts and resets every shadow to power-on.
func (b *BranchAccounting) Reset() {
	b.stats = make(map[uint32]*BranchAcct)
	b.foldEligible = make(map[uint32]bool)
	for _, s := range b.shadows {
		s.Reset()
	}
}
