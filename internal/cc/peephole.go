package cc

import (
	"fmt"
	"strings"
)

// Peephole optimization over the generated assembly lines, before
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

// aline is one parsed assembly line.
type aline struct {
	label string   // non-empty for label lines
	op    string   // mnemonic
	args  []string // operands, comma-split
	raw   string   // original text (fallback)
}

func parseALine(s string) aline {
	t := strings.TrimSpace(s)
	if strings.HasSuffix(t, ":") {
		return aline{label: strings.TrimSuffix(t, ":"), raw: s}
	}
	sp := strings.IndexAny(t, " \t")
	if sp < 0 {
		return aline{op: t, raw: s}
	}
	op := t[:sp]
	rest := strings.TrimSpace(t[sp+1:])
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return aline{op: op, args: parts, raw: s}
}

// String renders the line back to assembly text.
func (l aline) String() string {
	if l.label != "" {
		return l.label + ":"
	}
	if len(l.args) == 0 {
		return "\t" + l.op
	}
	return "\t" + l.op + " " + strings.Join(l.args, ", ")
}

// isBarrier reports whether the instruction ends a block or clobbers
// state the analysis does not model (calls, returns, syscalls).
func (l aline) isBarrier() bool {
	switch l.op {
	case "j", "jal", "jr", "jalr", "syscall", "bitsw", "break",
		"beq", "bne", "beqz", "bnez", "blez", "bgtz", "bltz", "bgez", "b",
		"bge", "bgt", "ble", "blt", "bgeu", "bgtu", "bleu", "bltu":
		return true
	}
	return l.label != ""
}

// memBase extracts the base register of an "off(reg)" operand.
func memBase(arg string) (string, bool) {
	open := strings.IndexByte(arg, '(')
	if open < 0 || !strings.HasSuffix(arg, ")") {
		return "", false
	}
	return arg[open+1 : len(arg)-1], true
}

// defsUses reports the registers an emitted instruction writes and
// reads. Only mnemonics the code generator emits are modeled; anything
// else is treated as a barrier by the caller.
func (l aline) defsUses() (defs, uses []string, known bool) {
	a := l.args
	reg := func(s string) bool {
		_, ok := regName(s)
		return ok
	}
	switch l.op {
	case "move", "neg", "not":
		if len(a) == 2 && reg(a[0]) && reg(a[1]) {
			return []string{a[0]}, []string{a[1]}, true
		}
	case "li":
		if len(a) == 2 && reg(a[0]) {
			return []string{a[0]}, nil, true
		}
	case "la":
		if len(a) == 2 && reg(a[0]) {
			return []string{a[0]}, nil, true
		}
	case "addu", "subu", "and", "or", "xor", "nor", "slt", "sltu",
		"sllv", "srlv", "srav":
		if len(a) == 3 && reg(a[0]) && reg(a[1]) && reg(a[2]) {
			return []string{a[0]}, []string{a[1], a[2]}, true
		}
	case "addiu", "slti", "sltiu", "andi", "ori", "xori", "sll", "srl", "sra":
		if len(a) == 3 && reg(a[0]) && reg(a[1]) {
			return []string{a[0]}, []string{a[1]}, true
		}
	case "mul", "div", "rem":
		if len(a) == 3 && reg(a[0]) && reg(a[1]) && reg(a[2]) {
			return []string{a[0]}, []string{a[1], a[2]}, true
		}
	case "lw", "lb", "lbu", "lh", "lhu":
		if len(a) == 2 {
			if base, ok := memBase(a[1]); ok && reg(base) {
				return []string{a[0]}, []string{base}, true
			}
			// Symbolic form expands through the assembler temporary.
			return []string{a[0], "at"}, nil, true
		}
	case "sw", "sb", "sh":
		if len(a) == 2 {
			if base, ok := memBase(a[1]); ok && reg(base) {
				return nil, []string{a[0], base}, true
			}
			return []string{"at"}, []string{a[0]}, true
		}
	case "beqz", "bnez", "blez", "bgtz", "bltz", "bgez":
		if len(a) == 2 && reg(a[0]) {
			return nil, []string{a[0]}, true
		}
	case "beq", "bne":
		if len(a) == 3 && reg(a[0]) && reg(a[1]) {
			return nil, []string{a[0], a[1]}, true
		}
	case "nop":
		return nil, nil, true
	}
	return nil, nil, false
}

// regName canonicalizes a register operand.
func regName(s string) (string, bool) {
	switch s {
	case "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
		"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
		"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
		"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra":
		return s, true
	}
	return "", false
}

func contains(list []string, r string) bool {
	for _, x := range list {
		if x == r {
			return true
		}
	}
	return false
}

// replaceUses rewrites reads of 'from' to 'to' in one instruction
// (never the destination operand).
func (l *aline) replaceUses(from, to string) {
	for i, a := range l.args {
		if a == from && !(i == 0 && writesArg0(l.op)) {
			l.args[i] = to
		}
		if base, ok := memBase(a); ok && base == from {
			l.args[i] = a[:strings.IndexByte(a, '(')] + "(" + to + ")"
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

// Peephole rewrites the generated lines. Exported for tests; Generate
// applies it automatically.
func Peephole(lines []string) []string {
	parsed := make([]aline, len(lines))
	for i, s := range lines {
		parsed[i] = parseALine(s)
	}
	changed := true
	for pass := 0; changed && pass < 4; pass++ {
		changed = copyPropagate(parsed)
		parsed = compact(parsed)
		if fuseStoreBack(parsed) {
			changed = true
		}
		parsed = compact(parsed)
	}
	out := make([]string, 0, len(parsed))
	for _, l := range parsed {
		out = append(out, l.String())
	}
	return out
}

// deadMark marks a line for deletion.
const deadOp = "\x00dead"

func compact(in []aline) []aline {
	out := in[:0]
	for _, l := range in {
		if l.op != deadOp {
			out = append(out, l)
		}
	}
	return out
}

// copyPropagate applies pattern 1 over every block.
func copyPropagate(ls []aline) bool {
	changed := false
	for i := 0; i < len(ls); i++ {
		l := ls[i]
		if l.op != "move" || len(l.args) != 2 {
			continue
		}
		d, s := l.args[0], l.args[1]
		if _, ok := regName(d); !ok {
			continue
		}
		if _, ok := regName(s); !ok {
			continue
		}
		if d == s {
			ls[i].op = deadOp
			changed = true
			continue
		}
		if s == "zero" {
			continue // li 0 form; leave for clarity
		}
		// Walk forward: substitute d -> s.
		usesAfterStop := false
		redefined := false
		for j := i + 1; j < len(ls); j++ {
			n := &ls[j]
			if n.op == deadOp {
				continue
			}
			if n.label != "" {
				usesAfterStop = true // d may be live into the next block
				break
			}
			defs, uses, known := n.defsUses()
			barrier := n.isBarrier()
			if barrier || !known {
				// Branches may read d; check uses when known.
				if known {
					if contains(uses, d) {
						n.replaceUses(d, s)
						changed = true
					}
				} else if lineMentions(n, d) {
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
			if contains(uses, d) {
				n.replaceUses(d, s)
				changed = true
			}
			if contains(defs, s) {
				// Source overwritten: stop substituting; d retains the
				// old value, so it may still be read later.
				usesAfterStop = true
				break
			}
			if contains(defs, d) {
				redefined = true
				break
			}
		}
		if redefined && !usesAfterStop {
			ls[i].op = deadOp
			changed = true
		}
	}
	return changed
}

// lineMentions reports whether any operand textually references reg.
func lineMentions(l *aline, reg string) bool {
	for _, a := range l.args {
		if a == reg {
			return true
		}
		if base, ok := memBase(a); ok && base == reg {
			return true
		}
	}
	return false
}

// fuseStoreBack applies pattern 2: `op d, ...` + `move x, d` with d
// dead afterwards becomes `op x, ...`.
func fuseStoreBack(ls []aline) bool {
	changed := false
	for i := 0; i+1 < len(ls); i++ {
		mv := ls[i+1]
		if mv.op != "move" || len(mv.args) != 2 {
			continue
		}
		x, d := mv.args[0], mv.args[1]
		defs, uses, known := ls[i].defsUses()
		if !known || len(defs) != 1 || defs[0] != d || d == x {
			continue
		}
		// The op must not read x (retargeting would corrupt an input)
		// and must not be a load/store through the symbolic form.
		if contains(uses, x) {
			continue
		}
		// d must be dead after the move: redefined in this block
		// before any use.
		if !deadAfter(ls, i+2, d) {
			continue
		}
		ls[i].args[0] = x
		ls[i+1].op = deadOp
		changed = true
	}
	return changed
}

// deadAfter reports whether reg is redefined before any use within the
// current block starting at index j.
func deadAfter(ls []aline, j int, reg string) bool {
	for ; j < len(ls); j++ {
		n := ls[j]
		if n.op == deadOp {
			continue
		}
		if n.label != "" || n.isBarrier() {
			// Unknown liveness beyond: presume live (conservative).
			return false
		}
		defs, uses, known := n.defsUses()
		if !known {
			return false
		}
		if contains(uses, reg) {
			return false
		}
		if contains(defs, reg) {
			return true
		}
	}
	return false
}

var _ = fmt.Sprintf
