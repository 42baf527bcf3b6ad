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

// Dependence resources, one bit each: the registers, then the HI/LO
// pair and memory. A load reads memory and a store writes it, so
// stores order against every memory operation and loads only against
// stores.
const (
	hiloBit = uint64(1) << isa.NumRegs
	memBit  = hiloBit << 1
)

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

	var s scheduler
	leaders := blockLeaders(p)
	blockStart := 0
	for i := 0; i <= len(out.Text); i++ {
		if i == len(out.Text) || (i > blockStart && leaders[i]) {
			if err := s.scheduleBlock(out, blockStart, i, &st); err != nil {
				return nil, st, err
			}
			blockStart = i
		}
	}
	return out, st, nil
}

// scheduler holds the working state of one block, reused from block to
// block.
type scheduler struct {
	body       []isa.Inst
	defs, uses []uint64 // per instruction: the resources it writes and reads
	deps       []uint64 // row i holds bit j when body[j] must precede body[i]
	remaining  []int    // un-emitted predecessor count
	inSlice    []bool
	emitted    []bool
	order      []int
}

// resize returns buf with n zero elements, reusing its storage.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// scheduleBlock reschedules instructions [start,end) of p.Text when
// the block ends in a foldable conditional branch.
func (s *scheduler) scheduleBlock(p *isa.Program, start, end int, st *Stats) error {
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

	body := s.body[:0]
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
	s.body = body
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

	s.dependences()
	w := (m + 63) / 64
	dep := func(i, j int) bool { return s.deps[i*w+j/64]>>(j%64)&1 != 0 }

	// The slice to hoist: the def and all its transitive predecessors.
	// Predecessors come first, so one backward sweep closes the set.
	s.inSlice = resize(s.inSlice, m)
	inSlice := s.inSlice
	inSlice[defIdx] = true
	for i := defIdx; i > 0; i-- {
		if !inSlice[i] {
			continue
		}
		for j := 0; j < i; j++ {
			if dep(i, j) {
				inSlice[j] = true
			}
		}
	}

	// List scheduling: emit ready instructions, slice members first.
	s.emitted = resize(s.emitted, m)
	emitted, remaining := s.emitted, s.remaining
	order := s.order[:0]
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
		for i := pick + 1; i < m; i++ {
			if dep(i, pick) {
				remaining[i]--
			}
		}
	}
	s.order = order

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
	for pos, idx := range order {
		w, err := isa.Encode(body[idx])
		if err != nil {
			return fmt.Errorf("sched: re-encoding block at 0x%08x: %w",
				p.TextBase+uint32(start*4), err)
		}
		p.Text[start+pos] = w
	}
	st.BlocksScheduled++
	branchPC := p.TextBase + uint32((end-1)*4)
	st.Distances[branchPC] = DistanceChange{Before: before, After: after}
	return nil
}

// dependences builds the must-precede matrix of s.body: flow, anti and
// output dependences over the registers, HI/LO and memory, and each
// instruction's predecessor count.
func (s *scheduler) dependences() {
	body := s.body
	m := len(body)
	s.defs = resize(s.defs, m)
	s.uses = resize(s.uses, m)
	for i, in := range body {
		var d, u uint64
		if rd, has := in.DestReg(); has {
			d |= 1 << rd
		}
		src, n := in.SrcRegs()
		for _, r := range src[:n] {
			u |= 1 << r
		}
		switch in.Op {
		case isa.OpMULT, isa.OpMULTU, isa.OpDIV, isa.OpDIVU, isa.OpMTHI, isa.OpMTLO:
			d |= hiloBit
		case isa.OpMFHI, isa.OpMFLO:
			u |= hiloBit
		}
		if in.IsLoad() {
			u |= memBit
		} else if in.IsStore() {
			d |= memBit
		}
		s.defs[i], s.uses[i] = d, u
	}
	w := (m + 63) / 64
	s.deps = resize(s.deps, m*w)
	s.remaining = resize(s.remaining, m)
	for i := 1; i < m; i++ {
		row := s.deps[i*w : (i+1)*w]
		for j := 0; j < i; j++ {
			if s.defs[j]&s.uses[i]|s.uses[j]&s.defs[i]|s.defs[j]&s.defs[i] != 0 {
				row[j/64] |= 1 << (j % 64)
				s.remaining[i]++
			}
		}
	}
}

// blockLeaders marks the text words that begin a basic block: branch
// and jump targets, the words after control transfers, and symbols.
func blockLeaders(p *isa.Program) []bool {
	leaders := make([]bool, len(p.Text))
	mark := func(addr uint32) {
		if off := addr - p.TextBase; off%4 == 0 && off/4 < uint32(len(leaders)) {
			leaders[off/4] = true
		}
	}
	for i, w := range p.Text {
		pc := p.TextBase + uint32(i*4)
		in, err := isa.Decode(w)
		if err != nil {
			continue
		}
		switch {
		case in.IsCondBranch():
			mark(in.BranchTarget(pc))
			mark(pc + 4)
		case in.Op == isa.OpJ || in.Op == isa.OpJAL:
			mark(in.Target)
			mark(pc + 4)
		case in.Op == isa.OpJR || in.Op == isa.OpJALR:
			mark(pc + 4)
		}
	}
	// Every symbol is a potential entry point (function labels).
	for _, addr := range p.Symbols {
		if p.InText(addr) {
			mark(addr)
		}
	}
	return leaders
}
