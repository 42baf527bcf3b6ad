// Package profile implements the paper's branch analysis pipeline
// (§6, "Branch Selection for ASBR"): per-branch execution statistics
// with shadow-predictor accuracies, static def-to-branch distance
// analysis, and profile-guided selection of the branches most worth
// folding — the frequently executed, hard-to-predict, foldable ones.
package profile

import (
	"sort"

	"asbr/internal/cpu"
	"asbr/internal/isa"
	"asbr/internal/predict"
)

// BranchStat accumulates one static branch's dynamic behaviour.
type BranchStat struct {
	PC      uint32
	Count   uint64
	Taken   uint64
	Correct map[string]uint64 // per shadow predictor: correct predictions
}

// TakenRate returns the fraction of executions that were taken.
func (b *BranchStat) TakenRate() float64 {
	if b.Count == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Count)
}

// Accuracy returns the shadow predictor's accuracy on this branch.
func (b *BranchStat) Accuracy(shadow string) float64 {
	if b.Count == 0 {
		return 0
	}
	return float64(b.Correct[shadow]) / float64(b.Count)
}

// Profiler observes every dynamic conditional branch (it implements
// cpu.BranchObserver) and replays each outcome through a set of shadow
// predictors, yielding per-branch accuracy for all of them in a single
// simulation — the data behind the paper's Figures 7, 9 and 10.
type Profiler struct {
	shadows []predict.DirectionPredictor
	names   []string // shadows[i].Name(), computed once: Name formats a string per call
	stats   map[uint32]*branchCounts
}

// branchCounts is one static branch's record. correct[i] counts
// shadows[i]'s correct predictions: a slice index per shadow, where a
// name-keyed map would hash a string per shadow per branch.
type branchCounts struct {
	pc           uint32
	count, taken uint64
	correct      []uint64
}

var _ cpu.BranchObserver = (*Profiler)(nil)

// New builds a profiler over the given shadow predictors. With no
// shadows it still collects execution counts and taken rates.
func New(shadows ...predict.DirectionPredictor) *Profiler {
	names := make([]string, len(shadows))
	for i, s := range shadows {
		names[i] = s.Name()
	}
	return &Profiler{shadows: shadows, names: names, stats: make(map[uint32]*branchCounts)}
}

// NewStandard builds a profiler with the paper's three reference
// predictors: not-taken, bimodal-2048, and gshare-11/2048.
func NewStandard() *Profiler {
	return New(predict.NotTaken{}, predict.Must(predict.NewBimodal(2048)), predict.Must(predict.NewGShare(11, 2048)))
}

// ShadowNames lists the shadow predictors in construction order.
func (p *Profiler) ShadowNames() []string {
	return append([]string(nil), p.names...)
}

// OnBranch implements cpu.BranchObserver.
func (p *Profiler) OnBranch(pc uint32, taken, folded bool) {
	bc := p.stats[pc]
	if bc == nil {
		bc = &branchCounts{pc: pc, correct: make([]uint64, len(p.shadows))}
		p.stats[pc] = bc
	}
	bc.count++
	if taken {
		bc.taken++
	}
	for i, s := range p.shadows {
		if s.Predict(pc) == taken {
			bc.correct[i]++
		}
		s.Update(pc, taken)
	}
}

// stat renders a branch record as a BranchStat. Correct holds a key
// only for a nonzero count, and shadows that share a name add into one
// key.
func (p *Profiler) stat(bc *branchCounts) BranchStat {
	st := BranchStat{PC: bc.pc, Count: bc.count, Taken: bc.taken, Correct: make(map[string]uint64, len(p.shadows))}
	for i, n := range bc.correct {
		if n != 0 {
			st.Correct[p.names[i]] += n
		}
	}
	return st
}

// Stat returns the statistics for one branch.
func (p *Profiler) Stat(pc uint32) (BranchStat, bool) {
	bc, ok := p.stats[pc]
	if !ok {
		return BranchStat{}, false
	}
	return p.stat(bc), true
}

// Stats returns all branch statistics sorted by descending execution
// count (ties by PC).
func (p *Profiler) Stats() []BranchStat {
	out := make([]BranchStat, 0, len(p.stats))
	for _, bc := range p.stats {
		out = append(out, p.stat(bc))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// TotalBranches returns the number of dynamic conditional branches seen.
func (p *Profiler) TotalBranches() uint64 {
	var n uint64
	for _, bc := range p.stats {
		n += bc.count
	}
	return n
}

// CrossBlockDistance marks a branch whose condition register is not
// defined within its own basic block: the definition distance is
// unbounded below by the block, so the branch is a fold candidate
// whose validity is enforced dynamically by the BDT counters.
const CrossBlockDistance = 1 << 20

// DefDistance computes the static distance (in instructions) from the
// nearest preceding definition of the branch's condition register to
// the branch, within the branch's basic block. The paper's §5
// feasibility condition compares this distance against the pipeline
// threshold. Returns CrossBlockDistance when no definition precedes
// the branch in its block, and -1 when the branch is not a foldable
// zero-comparison branch.
func DefDistance(p *isa.Program, branchPC uint32) int {
	return defDistance(p, branchPC, blockLeaders(p))
}

// defDistance is DefDistance over the program's precomputed block
// leaders, so a caller measuring many branches builds them once.
func defDistance(p *isa.Program, branchPC uint32, leaders map[uint32]bool) int {
	in, err := p.InstAt(branchPC)
	if err != nil {
		return -1
	}
	reg, _, ok := in.ZeroCond()
	if !ok || reg == isa.RegZero {
		return -1
	}
	dist := 0
	for pc := branchPC; pc > p.TextBase; {
		if leaders[pc] {
			break // crossed into a predecessor block
		}
		pc -= 4
		prev, err := p.InstAt(pc)
		if err != nil {
			break
		}
		if rd, has := prev.DestReg(); has && rd == reg {
			return dist
		}
		dist++
	}
	return CrossBlockDistance
}

// blockLeaders computes the set of basic-block leader addresses:
// branch/jump targets and the instructions following any control
// transfer.
func blockLeaders(p *isa.Program) map[uint32]bool {
	leaders := map[uint32]bool{p.TextBase: true}
	for i, w := range p.Text {
		pc := p.TextBase + uint32(i*4)
		in, err := isa.Decode(w)
		if err != nil {
			continue
		}
		switch {
		case in.IsCondBranch():
			leaders[in.BranchTarget(pc)] = true
			leaders[pc+4] = true
		case in.Op == isa.OpJ || in.Op == isa.OpJAL:
			leaders[in.Target] = true
			leaders[pc+4] = true
		case in.Op == isa.OpJR || in.Op == isa.OpJALR:
			leaders[pc+4] = true
		}
	}
	return leaders
}
