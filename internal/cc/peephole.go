package cc

import (
	"slices"

	"asbr/internal/asm"
	"asbr/internal/isa"
)

// Peephole optimization over the generated assembly statements, before
// assembly. Working at this level keeps label references symbolic, so
// deleting instructions is free (no branch-offset or address fixups).
//
// Two block-local patterns are applied per basic block:
//
//  1. Copy propagation: after `move d, s`, uses of d are rewritten to
//     s until d or s is redefined; the move is deleted if d is
//     provably dead afterwards (redefined later in the same block
//     with no remaining uses in between).
//  2. Store-back forwarding: `op d, ...` immediately followed by
//     `move x, d` retargets the op to x when d is dead afterwards.
//
// Liveness is block-local and conservative: a register is presumed
// live-out unless it is redefined later in the block, which is safe
// for the expression-stack temporaries that may cross labels (ternary
// and short-circuit results).

// regSet is a set of registers, one bit per register.
type regSet uint32

func (s regSet) has(r isa.Reg) bool { return s&(1<<r) != 0 }

// isBarrier reports whether the statement ends a block or clobbers
// state the analysis does not model (calls, returns, syscalls).
func isBarrier(l *asm.Stmt) bool {
	switch l.Op {
	case "j", "jal", "jr", "jalr", "syscall", "bitsw", "break",
		"beq", "bne", "beqz", "bnez", "blez", "bgtz", "bltz", "bgez", "b",
		"bge", "bgt", "ble", "blt", "bgeu", "bgtu", "bleu", "bltu":
		return true
	}
	return l.Label != ""
}

// defsUses reports the registers an emitted instruction writes and
// reads. Only mnemonics the code generator emits are modeled; anything
// else is treated as a barrier by the caller.
func defsUses(l *asm.Stmt) (defs, uses regSet, known bool) {
	a := l.Args
	isReg := func(i int) bool { return a[i].Kind == asm.KindReg }
	// reg is the set holding operand i when it is a register.
	reg := func(i int) regSet {
		if !isReg(i) {
			return 0
		}
		return 1 << a[i].Reg
	}
	switch l.Op {
	case "move", "neg", "not":
		if len(a) == 2 && isReg(0) && isReg(1) {
			return reg(0), reg(1), true
		}
	case "li", "la":
		if len(a) == 2 && isReg(0) {
			return reg(0), 0, true
		}
	case "addu", "subu", "and", "or", "xor", "nor", "slt", "sltu",
		"sllv", "srlv", "srav", "mul", "div", "rem":
		if len(a) == 3 && isReg(0) && isReg(1) && isReg(2) {
			return reg(0), reg(1) | reg(2), true
		}
	case "addiu", "slti", "sltiu", "andi", "ori", "xori", "sll", "srl", "sra":
		if len(a) == 3 && isReg(0) && isReg(1) {
			return reg(0), reg(1), true
		}
	case "lw", "lb", "lbu", "lh", "lhu":
		if len(a) == 2 {
			if a[1].Kind == asm.KindMem {
				return reg(0), 1 << a[1].Reg, true
			}
			// Symbolic form expands through the assembler temporary.
			return reg(0) | 1<<isa.RegAT, 0, true
		}
	case "sw", "sb", "sh":
		if len(a) == 2 {
			if a[1].Kind == asm.KindMem {
				return 0, reg(0) | 1<<a[1].Reg, true
			}
			return 1 << isa.RegAT, reg(0), true
		}
	case "beqz", "bnez", "blez", "bgtz", "bltz", "bgez":
		if len(a) == 2 && isReg(0) {
			return 0, reg(0), true
		}
	case "beq", "bne":
		if len(a) == 3 && isReg(0) && isReg(1) {
			return 0, reg(0) | reg(1), true
		}
	case "nop":
		return 0, 0, true
	}
	return 0, 0, false
}

// moveRegs returns the destination and source of `move d, s`.
func moveRegs(l *asm.Stmt) (d, s isa.Reg, ok bool) {
	if l.Op != "move" || len(l.Args) != 2 || l.Args[0].Kind != asm.KindReg || l.Args[1].Kind != asm.KindReg {
		return 0, 0, false
	}
	return l.Args[0].Reg, l.Args[1].Reg, true
}

// replaceUses rewrites reads of 'from' to 'to' in one instruction
// (never the destination operand).
func replaceUses(l *asm.Stmt, from, to isa.Reg) {
	for i := range l.Args {
		a := &l.Args[i]
		switch {
		case a.Kind == asm.KindReg && a.Reg == from && !(i == 0 && writesArg0(l.Op)):
			a.Reg = to
		case a.Kind == asm.KindMem && a.Reg == from:
			a.Reg = to
		}
	}
}

// writesArg0 reports whether the first operand is a destination for
// the modeled mnemonics (everything except stores and branches).
func writesArg0(op string) bool {
	switch op {
	case "sw", "sb", "sh",
		"beqz", "bnez", "blez", "bgtz", "bltz", "bgez", "beq", "bne", "nop":
		return false
	}
	return true
}

// Peephole rewrites the generated statements in place and returns
// them compacted, a prefix of ls. Generate applies it automatically.
func Peephole(ls []asm.Stmt) []asm.Stmt {
	changed := true
	for pass := 0; changed && pass < 4; pass++ {
		changed = copyPropagate(ls)
		ls = compact(ls)
		if fuseStoreBack(ls) {
			changed = true
		}
		ls = compact(ls)
	}
	return ls
}

// deadOp marks a statement for deletion.
const deadOp = "\x00dead"

func compact(in []asm.Stmt) []asm.Stmt {
	return slices.DeleteFunc(in, func(l asm.Stmt) bool { return l.Op == deadOp })
}

// copyPropagate applies pattern 1 over every block.
func copyPropagate(ls []asm.Stmt) bool {
	changed := false
	for i := range ls {
		d, s, ok := moveRegs(&ls[i])
		if !ok {
			continue
		}
		if d == s {
			ls[i].Op = deadOp
			changed = true
			continue
		}
		if s == isa.RegZero {
			continue // li 0 form; leave for clarity
		}
		// Walk forward: substitute d -> s.
		usesAfterStop := false
		redefined := false
		for j := i + 1; j < len(ls); j++ {
			n := &ls[j]
			if n.Op == deadOp {
				continue
			}
			if n.Label != "" {
				usesAfterStop = true // d may be live into the next block
				break
			}
			defs, uses, known := defsUses(n)
			barrier := isBarrier(n)
			if barrier || !known {
				// Branches may read d; check uses when known.
				if known {
					if uses.has(d) {
						replaceUses(n, d, s)
						changed = true
					}
				} else if mentions(n, d) {
					// Unknown instruction touching d: give up.
					usesAfterStop = true
					break
				}
				if barrier {
					usesAfterStop = true // conservatively live across calls/branches
					break
				}
				continue
			}
			if uses.has(d) {
				replaceUses(n, d, s)
				changed = true
			}
			if defs.has(s) {
				// Source overwritten: stop substituting; d retains the
				// old value, so it may still be read later.
				usesAfterStop = true
				break
			}
			if defs.has(d) {
				redefined = true
				break
			}
		}
		if redefined && !usesAfterStop {
			ls[i].Op = deadOp
			changed = true
		}
	}
	return changed
}

// mentions reports whether any operand references reg.
func mentions(l *asm.Stmt, reg isa.Reg) bool {
	for _, a := range l.Args {
		if (a.Kind == asm.KindReg || a.Kind == asm.KindMem) && a.Reg == reg {
			return true
		}
	}
	return false
}

// fuseStoreBack applies pattern 2: `op d, ...` + `move x, d` with d
// dead afterwards becomes `op x, ...`.
func fuseStoreBack(ls []asm.Stmt) bool {
	changed := false
	for i := 0; i+1 < len(ls); i++ {
		x, d, ok := moveRegs(&ls[i+1])
		if !ok {
			continue
		}
		defs, uses, known := defsUses(&ls[i])
		if !known || defs != 1<<d || d == x {
			continue
		}
		// The op must not read x (retargeting would corrupt an input).
		if uses.has(x) {
			continue
		}
		// d must be dead after the move: redefined in this block
		// before any use.
		if !deadAfter(ls, i+2, d) {
			continue
		}
		ls[i].Args[0] = asm.Reg(x)
		ls[i+1].Op = deadOp
		changed = true
	}
	return changed
}

// deadAfter reports whether reg is redefined before any use within the
// current block starting at index j.
func deadAfter(ls []asm.Stmt, j int, reg isa.Reg) bool {
	for ; j < len(ls); j++ {
		n := &ls[j]
		if n.Op == deadOp {
			continue
		}
		if isBarrier(n) {
			// Unknown liveness beyond: presume live (conservative).
			return false
		}
		defs, uses, known := defsUses(n)
		if !known {
			return false
		}
		if uses.has(reg) {
			return false
		}
		if defs.has(reg) {
			return true
		}
	}
	return false
}
