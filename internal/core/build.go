package core

import (
	"fmt"
	"sort"

	"asbr/internal/isa"
)

// BuildEntry statically pre-decodes the conditional branch at pc into
// a BIT entry: "This information ... is obtained statically during
// compile time and provided to the embedded processor core during
// program code upload" (paper §4).
//
// The branch must be a zero-comparison on a single register (beq/bne
// against the zero register, or blez/bgtz/bltz/bgez); two-register
// compares have no BDT representation. Both the target and the
// fall-through instruction must lie in the text segment.
//
// Note that BTI/BFI may themselves be any instruction, including
// jumps or further branches: the fold injects them with their true
// architectural PC, so PC-relative semantics are preserved.
func BuildEntry(p *isa.Program, pc uint32) (BITEntry, error) {
	in, err := p.InstAt(pc)
	if err != nil {
		return BITEntry{}, fmt.Errorf("core: build entry: %v", err)
	}
	if !in.IsCondBranch() {
		return BITEntry{}, fmt.Errorf("core: 0x%08x is %s, not a conditional branch", pc, in.Op)
	}
	reg, cond, ok := in.ZeroCond()
	if !ok {
		return BITEntry{}, fmt.Errorf("core: branch at 0x%08x compares two registers; not BDT-foldable", pc)
	}
	if reg == isa.RegZero {
		return BITEntry{}, fmt.Errorf("core: branch at 0x%08x tests the zero register; fold it in the compiler instead", pc)
	}
	bta := in.BranchTarget(pc)
	bti, err := p.WordAt(bta)
	if err != nil {
		return BITEntry{}, fmt.Errorf("core: branch at 0x%08x: target: %v", pc, err)
	}
	bfi, err := p.WordAt(pc + 4)
	if err != nil {
		return BITEntry{}, fmt.Errorf("core: branch at 0x%08x: fall-through: %v", pc, err)
	}
	return BITEntry{PC: pc, BTA: bta, BTI: bti, BFI: bfi, Reg: reg, Cond: cond}, nil
}

// BuildBIT pre-decodes a set of branch PCs, returning entries in
// ascending PC order.
func BuildBIT(p *isa.Program, pcs []uint32) ([]BITEntry, error) {
	sorted := make([]uint32, len(pcs))
	copy(sorted, pcs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]BITEntry, 0, len(sorted))
	for i, pc := range sorted {
		if i > 0 && pc == sorted[i-1] {
			return nil, fmt.Errorf("core: duplicate branch pc 0x%08x", pc)
		}
		e, err := BuildEntry(p, pc)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// FoldableBranches scans the whole text segment and returns the PCs of
// every conditional branch that BuildEntry accepts — the candidate set
// the paper's selection step (§6) prioritizes. Words that are not
// zero-comparison branches on a nonzero register are skipped before
// BuildEntry, which would format an error for each of them.
func FoldableBranches(p *isa.Program) []uint32 {
	var out []uint32
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if err != nil {
			continue
		}
		if reg, _, ok := in.ZeroCond(); !ok || reg == isa.RegZero {
			continue
		}
		pc := p.TextBase + uint32(i*4)
		if _, err := BuildEntry(p, pc); err == nil {
			out = append(out, pc)
		}
	}
	return out
}
