// Package sched implements the ASBR-oriented instruction scheduling
// pass of the paper's §5.1: within each basic block that ends in a
// foldable zero-comparison branch, the definition of the branch's
// condition register is hoisted as early as data dependences allow,
// pushing independent instructions between the definition and the
// branch. This widens the def-to-branch distance the fold threshold
// compares against (the paper performed this scheduling manually on
// the benchmark code).
//
// The pass runs on assembled programs, so it applies equally to
// MiniC-compiled and hand-written assembly. Reordering stays inside
// basic blocks, so no addresses, branch offsets, or symbols change —
// only the permutation of instructions within each block.
package sched

import (
	"fmt"

	"asbr/internal/isa"
)

// Stats reports what the pass did.
type Stats struct {
	BlocksConsidered int
	BlocksScheduled  int // blocks whose order changed
	// Distances maps each scheduled branch PC to its def-to-branch
	// distance before and after the pass.
	Distances map[uint32]DistanceChange
}

// DistanceChange is the before/after def-to-branch distance of one branch.
type DistanceChange struct {
	Before int
	After  int
}

// pseudo-register index for the HI/LO pair in dependence analysis.
const hiloReg = isa.NumRegs

// Schedule returns a copy of p with each eligible basic block
// rescheduled. The input program is not modified. An error means an
// instruction that decoded cleanly failed to re-encode — a corrupt
// program or an ISA bug — and the partial output must be discarded.
func Schedule(p *isa.Program) (*isa.Program, Stats, error) {
	out := &isa.Program{
		TextBase: p.TextBase,
		Text:     make([]uint32, len(p.Text)),
		DataBase: p.DataBase,
		Data:     p.Data,
		Entry:    p.Entry,
		Symbols:  p.Symbols,
	}
	copy(out.Text, p.Text)
	st := Stats{Distances: make(map[uint32]DistanceChange)}

	leaders := blockLeaders(p)
	blockStart := 0
	for i := 0; i <= len(out.Text); i++ {
		pc := p.TextBase + uint32(i*4)
		if i == len(out.Text) || (i > blockStart && leaders[pc]) {
			if err := scheduleBlock(out, blockStart, i, &st); err != nil {
				return nil, st, err
			}
			blockStart = i
		}
	}
	return out, st, nil
}

// scheduleBlock reschedules instructions [start,end) of out.Text when
// the block ends in a foldable conditional branch.
func scheduleBlock(p *isa.Program, start, end int, st *Stats) error {
	n := end - start
	if n < 3 {
		return nil // a def, an independent instruction, and a branch at minimum
	}
	last, err := isa.Decode(p.Text[end-1])
	if err != nil || !last.IsCondBranch() {
		return nil
	}
	condReg, _, ok := last.ZeroCond()
	if !ok || condReg == isa.RegZero {
		return nil
	}
	st.BlocksConsidered++

	body := make([]isa.Inst, 0, n-1)
	for i := start; i < end-1; i++ {
		in, err := isa.Decode(p.Text[i])
		if err != nil {
			return nil // opaque word: leave the block alone
		}
		switch in.Op {
		case isa.OpSYSCALL, isa.OpBREAK, isa.OpBITSW,
			isa.OpJ, isa.OpJAL, isa.OpJR, isa.OpJALR,
			isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ, isa.OpBLTZ, isa.OpBGEZ:
			return nil // barriers / control flow mid-block: skip
		}
		body = append(body, in)
	}
	m := len(body)

	// Find the last definition of the condition register.
	defIdx := -1
	for i := m - 1; i >= 0; i-- {
		if rd, has := body[i].DestReg(); has && rd == condReg {
			defIdx = i
			break
		}
	}
	if defIdx < 0 {
		return nil // condition defined in a predecessor block
	}
	before := m - 1 - defIdx

	preds := dependences(body)

	// The slice to hoist: the def and all its transitive predecessors.
	inSlice := make([]bool, m)
	var mark func(int)
	mark = func(i int) {
		if inSlice[i] {
			return
		}
		inSlice[i] = true
		for _, j := range preds[i] {
			mark(j)
		}
	}
	mark(defIdx)

	// List scheduling: emit ready instructions, slice members first.
	emitted := make([]bool, m)
	remaining := make([]int, m) // un-emitted predecessor count
	for i := range preds {
		remaining[i] = 0
		for range preds[i] {
			remaining[i]++
		}
	}
	order := make([]int, 0, m)
	for len(order) < m {
		pick := -1
		for i := 0; i < m; i++ {
			if emitted[i] || remaining[i] > 0 {
				continue
			}
			if pick < 0 {
				pick = i
			}
			if inSlice[i] && !inSlice[pick] {
				pick = i
			}
			if inSlice[i] == inSlice[pick] && i < pick {
				pick = i
			}
		}
		if pick < 0 {
			return nil // cycle: cannot happen, but fail safe
		}
		emitted[pick] = true
		order = append(order, pick)
		for i := 0; i < m; i++ {
			if emitted[i] {
				continue
			}
			for _, j := range preds[i] {
				if j == pick {
					remaining[i]--
				}
			}
		}
	}

	// Compute the new def position and rewrite only on improvement.
	newDefPos := -1
	for pos, idx := range order {
		if idx == defIdx {
			newDefPos = pos
		}
	}
	after := m - 1 - newDefPos
	if after <= before {
		return nil
	}
	words := make([]uint32, m)
	for pos, idx := range order {
		w, err := isa.Encode(body[idx])
		if err != nil {
			return fmt.Errorf("sched: re-encoding block at 0x%08x: %w",
				p.TextBase+uint32(start*4), err)
		}
		words[pos] = w
	}
	copy(p.Text[start:start+m], words)
	st.BlocksScheduled++
	branchPC := p.TextBase + uint32((end-1)*4)
	st.Distances[branchPC] = DistanceChange{Before: before, After: after}
	return nil
}

// dependences builds the must-precede lists for a straight-line body:
// flow, anti and output register dependences (including HI/LO), and
// conservative memory ordering (stores order against all memory ops).
func dependences(body []isa.Inst) [][]int {
	m := len(body)
	preds := make([][]int, m)
	defs := make([][]int, m) // register indexes defined
	uses := make([][]int, m)
	for i, in := range body {
		if rd, has := in.DestReg(); has {
			defs[i] = append(defs[i], int(rd))
		}
		src, n := in.SrcRegs()
		for _, r := range src[:n] {
			uses[i] = append(uses[i], int(r))
		}
		switch in.Op {
		case isa.OpMULT, isa.OpMULTU, isa.OpDIV, isa.OpDIVU, isa.OpMTHI, isa.OpMTLO:
			defs[i] = append(defs[i], hiloReg)
		case isa.OpMFHI, isa.OpMFLO:
			uses[i] = append(uses[i], hiloReg)
		}
	}
	intersects := func(a, b []int) bool {
		for _, x := range a {
			for _, y := range b {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	for i := 1; i < m; i++ {
		for j := 0; j < i; j++ {
			dep := intersects(defs[j], uses[i]) || // flow
				intersects(uses[j], defs[i]) || // anti
				intersects(defs[j], defs[i]) // output
			if !dep {
				ji, ii := body[j], body[i]
				dep = (ji.IsStore() && (ii.IsLoad() || ii.IsStore())) ||
					(ji.IsLoad() && ii.IsStore())
			}
			if dep {
				preds[i] = append(preds[i], j)
			}
		}
	}
	return preds
}

// blockLeaders computes basic-block leader addresses.
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
	// Every symbol is a potential entry point (function labels).
	for _, addr := range p.Symbols {
		if p.InText(addr) {
			leaders[addr] = true
		}
	}
	return leaders
}
