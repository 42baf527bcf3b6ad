package obs

import (
	"slices"
	"sort"
)

// ShadowSet is the set of shadow direction predictors the
// branch-accounting observer replays outcomes through. Predict sets
// pred[i] to member i's prediction without training any member, and
// Update trains them all with the outcome. predict.Zoo satisfies it
// structurally, so the obs layer stays free of a predict dependency.
type ShadowSet interface {
	Names() []string
	Predict(pc uint32, pred []bool)
	Update(pc uint32, taken bool)
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
	// Mispredicts counts wrong shadow predictions per shadow, indexed
	// like BranchAccounting.ShadowNames.
	Mispredicts []uint64
	// MispredictsFolded counts the subset of Mispredicts that landed on
	// executions the ASBR front-end folded: mispredictions the fold
	// removed that the shadow would have paid for. This is the exact
	// joint account the rescued-misprediction metric needs — a per-branch
	// product of rates would only approximate it.
	MispredictsFolded []uint64
	// CycleCost is the branch's misprediction cost under its best
	// shadow: min-over-shadows mispredicts times the flush penalty —
	// the cycles the best dynamic predictor in the zoo still loses on
	// this branch.
	CycleCost uint64
}

// Best returns the index of the shadow with the fewest mispredicts on
// this branch, the earliest in replay order on a tie, or -1 when there
// are no shadows.
func (a *BranchAcct) Best() int {
	best := -1
	for i, m := range a.Mispredicts {
		if best < 0 || m < a.Mispredicts[best] {
			best = i
		}
	}
	return best
}

// BestMispredicts returns the lowest mispredict count any shadow
// achieved on this branch (0 when there are no shadows).
func (a *BranchAcct) BestMispredicts() uint64 {
	if i := a.Best(); i >= 0 {
		return a.Mispredicts[i]
	}
	return 0
}

// Accuracy returns shadow i's prediction accuracy on this branch (1.0
// for an unexecuted branch).
func (a *BranchAcct) Accuracy(i int) float64 {
	if a.Execs == 0 {
		return 1
	}
	return 1 - float64(a.Mispredicts[i])/float64(a.Execs)
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
	shadows      ShadowSet
	names        []string
	pred         []bool // the shadows' predictions for the branch in OnBranch
	stats        map[uint32]*BranchAcct
	foldEligible map[uint32]bool
	// FlushPenalty is the cycle cost per misprediction used for
	// BranchAcct.CycleCost (the pipeline flush depth).
	FlushPenalty uint64
}

// NewBranchAccounting builds the observer. flushPenalty prices one
// misprediction in cycles; the shadows are owned by the observer from
// here on (Reset resets them).
func NewBranchAccounting(flushPenalty uint64, shadows ShadowSet) *BranchAccounting {
	names := shadows.Names()
	return &BranchAccounting{
		shadows:      shadows,
		names:        names,
		pred:         make([]bool, len(names)),
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
			Mispredicts:       make([]uint64, len(b.names)),
			MispredictsFolded: make([]uint64, len(b.names)),
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
	b.shadows.Predict(pc, b.pred)
	for i, p := range b.pred {
		if p != taken {
			a.Mispredicts[i]++
			if folded {
				a.MispredictsFolded[i]++
			}
		}
	}
	b.shadows.Update(pc, taken)
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
	return slices.Clone(b.names)
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
	b.shadows.Reset()
}
