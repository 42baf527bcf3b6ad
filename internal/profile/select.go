package profile

import (
	"fmt"
	"sort"

	"asbr/internal/core"
	"asbr/internal/isa"
)

// Candidate is a foldable branch ranked for BIT inclusion.
type Candidate struct {
	PC          uint32
	Count       uint64  // dynamic executions (profile)
	TakenRate   float64 // fraction taken
	AuxAccuracy float64 // accuracy of the auxiliary predictor on this branch
	Distance    int     // static def-to-branch distance (CrossBlockDistance if unbounded)
	Score       float64 // expected cycles saved per run (benefit model)
}

// SelectOptions tunes the ranking.
type SelectOptions struct {
	// Aux names the shadow predictor whose accuracy stands in for the
	// auxiliary predictor the folded branches would otherwise use.
	Aux string
	// MinDistance is the pipeline threshold (paper §5.2): branches
	// whose static distance is below it always fall back and are
	// excluded. Cross-block branches pass (validity is dynamic).
	MinDistance int
	// K is the BIT capacity; at most K candidates are returned
	// (default core.DefaultBITEntries).
	K int
	// MinCount drops branches executed fewer times (noise floor).
	MinCount uint64
	// Penalty is the pipeline's misprediction flush cost in cycles,
	// used by the benefit model (default 5).
	Penalty int
}

// Select implements the paper's §6 prioritization: among the branches
// that are statically foldable and satisfy the distance property, rank
// by expected benefit and return the top K for a BIT.
//
// The benefit model counts, per execution: one cycle for the removed
// branch instruction plus the auxiliary predictor's expected flush
// cost — and *subtracts* the cost a fold induces when the replacement
// instruction (target or fall-through) is itself a conditional branch:
// an injected branch enters the pipeline without a fetch prediction,
// so it flushes whenever taken, where the baseline would only have
// flushed on its mispredictions. "Frequently executed, hard-to-predict
// branches are especially propitious to resolve" (paper §6), but a
// fold that uncovers a taken-biased neighbour is a net loss and is
// rejected.
func Select(p *isa.Program, prof *Profiler, opt SelectOptions) ([]Candidate, error) {
	if opt.K <= 0 {
		opt.K = core.DefaultBITEntries
	}
	if opt.Penalty <= 0 {
		opt.Penalty = 5
	}
	names := prof.ShadowNames()
	if opt.Aux == "" && len(names) > 0 {
		opt.Aux = names[0]
	}
	known := false
	for _, n := range names {
		if n == opt.Aux {
			known = true
		}
	}
	if !known {
		return nil, fmt.Errorf("profile: auxiliary predictor %q was not among the profiling shadows %v", opt.Aux, names)
	}
	penalty := float64(opt.Penalty)
	// injectedDelta estimates the per-execution extra cycles of
	// injecting the instruction at addr (reached with probability
	// reach) instead of fetching and predicting it normally.
	injectedDelta := func(addr uint32, reach float64) float64 {
		in, err := p.InstAt(addr)
		if err != nil || !in.IsCondBranch() {
			return 0 // non-branches behave identically when injected
		}
		bst, ok := prof.Stat(addr)
		if !ok {
			return 0 // never executed on profiled paths
		}
		baselineFlush := 1 - bst.Accuracy(opt.Aux)
		injectedFlush := bst.TakenRate() // unpredicted: flush iff taken
		return reach * (injectedFlush - baselineFlush) * penalty
	}
	var out []Candidate
	leaders := blockLeaders(p)
	for _, pc := range core.FoldableBranches(p) {
		st, ok := prof.Stat(pc)
		if !ok || st.Count < opt.MinCount || st.Count == 0 {
			continue
		}
		d := defDistance(p, pc, leaders)
		if d < opt.MinDistance {
			continue
		}
		in, err := p.InstAt(pc)
		if err != nil {
			continue
		}
		acc := st.Accuracy(opt.Aux)
		taken := st.TakenRate()
		perExec := (1-acc)*penalty + 1
		perExec -= injectedDelta(in.BranchTarget(pc), taken)
		perExec -= injectedDelta(pc+4, 1-taken)
		score := float64(st.Count) * perExec
		if score <= 0 {
			continue // folding this branch costs more than it saves
		}
		out = append(out, Candidate{
			PC:          pc,
			Count:       st.Count,
			TakenRate:   taken,
			AuxAccuracy: acc,
			Distance:    d,
			Score:       score,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	out = dropFoldShadowed(p, out)
	if len(out) > opt.K {
		out = out[:opt.K]
	}
	return out, nil
}

// dropFoldShadowed greedily removes lower-ranked candidates that a
// higher-ranked fold would shadow: when branch S folds, its target or
// fall-through instruction is injected into the fetch slot without a
// BIT lookup, so a branch sitting at S's BTA or S.PC+4 would never be
// identified and its BIT entry would be wasted.
func dropFoldShadowed(p *isa.Program, cands []Candidate) []Candidate {
	shadowed := func(kept []Candidate, c Candidate) bool {
		for _, s := range kept {
			in, err := p.InstAt(s.PC)
			if err != nil {
				continue
			}
			bta := in.BranchTarget(s.PC)
			if c.PC == bta || c.PC == s.PC+4 {
				return true
			}
			// Symmetric: keeping c would shadow s the same way.
			cin, err := p.InstAt(c.PC)
			if err != nil {
				continue
			}
			if s.PC == cin.BranchTarget(c.PC) || s.PC == c.PC+4 {
				return true
			}
		}
		return false
	}
	kept := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if !shadowed(kept, c) {
			kept = append(kept, c)
		}
	}
	return kept
}

// BuildBITFromCandidates pre-decodes the selected candidates into BIT
// entries (ascending PC order).
func BuildBITFromCandidates(p *isa.Program, cands []Candidate) ([]core.BITEntry, error) {
	pcs := make([]uint32, len(cands))
	for i, c := range cands {
		pcs[i] = c.PC
	}
	return core.BuildBIT(p, pcs)
}
