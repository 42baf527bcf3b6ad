package asm

import (
	"fmt"
	"strconv"
	"strings"

	"asbr/internal/isa"
)

// Pseudo-instruction expansion. Every pseudo expands to a fixed,
// pass-one-computable number of words so layout is deterministic:
//
//	nop                      -> sll zero, zero, 0
//	move rd, rs              -> addu rd, rs, zero
//	neg  rd, rs              -> subu rd, zero, rs
//	not  rd, rs              -> nor rd, rs, zero
//	li   rt, imm             -> addiu/ori (1 word) or lui+ori (2 words)
//	la   rt, sym             -> lui at + ori (2 words, always)
//	b    label               -> beq zero, zero, label
//	beqz/bnez/blez/bgtz/bltz/bgez rs, label -> hardware branch
//	bge/bgt/ble/blt[u] rs, rt, label        -> slt[u] at + branch (2 words)
//	mul  rd, rs, rt          -> mult + mflo (2 words)
//	div  rd, rs, rt          -> div  + mflo (2 words; 2-operand div is the raw op)
//	rem  rd, rs, rt          -> div  + mfhi (2 words)
//	lw   rt, sym / sw ...    -> lui at + lw rt, lo(at) (2 words)

// expandSize reports how many instruction words a statement assembles
// to. It must agree exactly with expand.
func expandSize(s *Stmt) (int, error) {
	switch s.Op {
	case "nop", "move", "neg", "not", "b",
		"beqz", "bnez":
		return 1, nil
	case "li":
		if len(s.Args) != 2 {
			return 0, errf(s.Line, "li needs 2 operands")
		}
		v, err := immOperand(s.Args[1], s.Line)
		if err != nil {
			return 0, err
		}
		if v >= -0x8000 && v <= 0xffff {
			return 1, nil
		}
		return 2, nil
	case "la":
		return 2, nil
	case "mul", "rem":
		return 2, nil
	case "div":
		if len(s.Args) == 3 {
			return 2, nil
		}
		return 1, nil
	case "bge", "bgt", "ble", "blt", "bgeu", "bgtu", "bleu", "bltu":
		return 2, nil
	case "lb", "lbu", "lh", "lhu", "lw", "sb", "sh", "sw":
		if len(s.Args) == 2 {
			if _, _, ok, _ := memOperand(s.Args[1], s.Line); !ok {
				return 2, nil // symbolic address form
			}
		}
		return 1, nil
	}
	if _, ok := isa.OpByName(s.Op); !ok {
		return 0, errf(s.Line, "unknown mnemonic %q", s.Op)
	}
	return 1, nil
}

// The operand readers below take a typed operand as it is when it has
// the kind they read, and otherwise read its text form, so a statement
// assembles the same as its Format text.

// regOperand reads a register operand.
func regOperand(o Operand, line int) (isa.Reg, error) {
	if o.Kind == KindReg && o.Reg < isa.NumRegs {
		return o.Reg, nil
	}
	return parseReg(o.String(), line)
}

// immOperand reads an integer literal or a character constant.
func immOperand(o Operand, line int) (int64, error) {
	if o.Kind == KindImm {
		return o.Imm, nil
	}
	return parseImmOperand(o.String(), line)
}

// memOperand reads an off(base) memory operand; ok is false for any
// other form.
func memOperand(o Operand, line int) (off int64, base isa.Reg, ok bool, err error) {
	if o.Kind == KindMem && o.Reg < isa.NumRegs {
		return o.Imm, o.Reg, true, nil
	}
	offText, baseText, ok := splitMem(o.String())
	if !ok {
		return 0, 0, false, nil
	}
	if base, err = parseReg(baseText, line); err == nil {
		off, err = parseImmOperand(offText, line)
	}
	return off, base, true, err
}

// branchOff resolves a branch operand (label or literal word offset)
// relative to the branch instruction at address bpc.
func (a *assembler) branchOff(o Operand, line int, bpc uint32) (int32, error) {
	if o.Kind == KindImm && int64(int32(o.Imm)) == o.Imm {
		return int32(o.Imm), nil
	}
	arg := strings.TrimSpace(o.String())
	if addr, ok := a.symbols[arg]; ok {
		diff := int64(addr) - int64(bpc) - 4
		if diff%4 != 0 {
			return 0, errf(line, "branch target %q misaligned", arg)
		}
		off := diff / 4
		if off < -0x8000 || off > 0x7fff {
			return 0, errf(line, "branch to %q out of range (%d words)", arg, off)
		}
		return int32(off), nil
	}
	v, err := strconv.ParseInt(arg, 0, 32)
	if err != nil {
		return 0, errf(line, "bad branch target %q", arg)
	}
	return int32(v), nil
}

// insts returns ins as the current statement's expansion, in the
// assembler's scratch buffer.
func (a *assembler) insts(ins ...isa.Inst) ([]isa.Inst, error) {
	a.buf = append(a.buf[:0], ins...)
	return a.buf, nil
}

// expand assembles one statement into instructions. pc is the address
// of the first emitted word. The result is valid until the next call.
func (a *assembler) expand(s *Stmt, pc uint32) ([]isa.Inst, error) {
	need := func(n int) error {
		if len(s.Args) != n {
			return errf(s.Line, "%s needs %d operand(s), got %d", s.Op, n, len(s.Args))
		}
		return nil
	}
	reg := func(i int) (isa.Reg, error) { return regOperand(s.Args[i], s.Line) }
	imm := func(i int) (int64, error) { return immOperand(s.Args[i], s.Line) }
	branchOff := func(i int, bpc uint32) (int32, error) { return a.branchOff(s.Args[i], s.Line, bpc) }

	switch s.Op {
	case "nop":
		return a.insts(isa.Nop())
	case "move":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := reg(0)
		if err != nil {
			return nil, err
		}
		rs, err := reg(1)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: isa.OpADDU, Rd: rd, Rs: rs})
	case "neg":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := reg(0)
		if err != nil {
			return nil, err
		}
		rs, err := reg(1)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: isa.OpSUBU, Rd: rd, Rt: rs})
	case "not":
		if err := need(2); err != nil {
			return nil, err
		}
		rd, err := reg(0)
		if err != nil {
			return nil, err
		}
		rs, err := reg(1)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: isa.OpNOR, Rd: rd, Rs: rs})
	case "li":
		if err := need(2); err != nil {
			return nil, err
		}
		rt, err := reg(0)
		if err != nil {
			return nil, err
		}
		v, err := imm(1)
		if err != nil {
			return nil, err
		}
		switch {
		case v >= -0x8000 && v <= 0x7fff:
			return a.insts(isa.Inst{Op: isa.OpADDIU, Rt: rt, Imm: int32(v)})
		case v >= 0 && v <= 0xffff:
			return a.insts(isa.Inst{Op: isa.OpORI, Rt: rt, Imm: int32(v)})
		}
		return a.insts(luiOri(rt, uint32(v)))
	case "la":
		if err := need(2); err != nil {
			return nil, err
		}
		rt, err := reg(0)
		if err != nil {
			return nil, err
		}
		addr, err := a.addrOperand(s.Args[1], s.Line)
		if err != nil {
			return nil, err
		}
		return a.insts(luiOri(rt, addr))
	case "b":
		if err := need(1); err != nil {
			return nil, err
		}
		off, err := branchOff(0, pc)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: isa.OpBEQ, Imm: off})
	case "beqz", "bnez":
		if err := need(2); err != nil {
			return nil, err
		}
		rs, err := reg(0)
		if err != nil {
			return nil, err
		}
		off, err := branchOff(1, pc)
		if err != nil {
			return nil, err
		}
		op := isa.OpBEQ
		if s.Op == "bnez" {
			op = isa.OpBNE
		}
		return a.insts(isa.Inst{Op: op, Rs: rs, Imm: off})
	case "bge", "bgt", "ble", "blt", "bgeu", "bgtu", "bleu", "bltu":
		if err := need(3); err != nil {
			return nil, err
		}
		rs, err := reg(0)
		if err != nil {
			return nil, err
		}
		rt, err := reg(1)
		if err != nil {
			return nil, err
		}
		off, err := branchOff(2, pc+4) // branch is the second word
		if err != nil {
			return nil, err
		}
		sltOp := isa.OpSLT
		if strings.HasSuffix(s.Op, "u") {
			sltOp = isa.OpSLTU
		}
		base := strings.TrimSuffix(s.Op, "u")
		var cmp isa.Inst
		brOp := isa.OpBEQ
		switch base {
		case "bge": // !(rs<rt)
			cmp = isa.Inst{Op: sltOp, Rd: isa.RegAT, Rs: rs, Rt: rt}
		case "blt": // rs<rt
			cmp = isa.Inst{Op: sltOp, Rd: isa.RegAT, Rs: rs, Rt: rt}
			brOp = isa.OpBNE
		case "bgt": // rt<rs
			cmp = isa.Inst{Op: sltOp, Rd: isa.RegAT, Rs: rt, Rt: rs}
			brOp = isa.OpBNE
		case "ble": // !(rt<rs)
			cmp = isa.Inst{Op: sltOp, Rd: isa.RegAT, Rs: rt, Rt: rs}
		}
		return a.insts(cmp, isa.Inst{Op: brOp, Rs: isa.RegAT, Imm: off})
	case "mul", "rem":
		if err := need(3); err != nil {
			return nil, err
		}
		rd, err := reg(0)
		if err != nil {
			return nil, err
		}
		rs, err := reg(1)
		if err != nil {
			return nil, err
		}
		rt, err := reg(2)
		if err != nil {
			return nil, err
		}
		if s.Op == "mul" {
			return a.insts(
				isa.Inst{Op: isa.OpMULT, Rs: rs, Rt: rt},
				isa.Inst{Op: isa.OpMFLO, Rd: rd},
			)
		}
		return a.insts(
			isa.Inst{Op: isa.OpDIV, Rs: rs, Rt: rt},
			isa.Inst{Op: isa.OpMFHI, Rd: rd},
		)
	case "div":
		if len(s.Args) == 3 {
			rd, err := reg(0)
			if err != nil {
				return nil, err
			}
			rs, err := reg(1)
			if err != nil {
				return nil, err
			}
			rt, err := reg(2)
			if err != nil {
				return nil, err
			}
			return a.insts(
				isa.Inst{Op: isa.OpDIV, Rs: rs, Rt: rt},
				isa.Inst{Op: isa.OpMFLO, Rd: rd},
			)
		}
	}

	op, ok := isa.OpByName(s.Op)
	if !ok {
		return nil, errf(s.Line, "unknown mnemonic %q", s.Op)
	}
	switch op {
	case isa.OpADD, isa.OpADDU, isa.OpSUB, isa.OpSUBU, isa.OpAND, isa.OpOR,
		isa.OpXOR, isa.OpNOR, isa.OpSLT, isa.OpSLTU:
		if err := need(3); err != nil {
			return nil, err
		}
		rd, e1 := reg(0)
		rs, e2 := reg(1)
		rt, e3 := reg(2)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
	case isa.OpSLLV, isa.OpSRLV, isa.OpSRAV:
		if err := need(3); err != nil {
			return nil, err
		}
		rd, e1 := reg(0)
		rt, e2 := reg(1)
		rs, e3 := reg(2)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rd: rd, Rt: rt, Rs: rs})
	case isa.OpSLL, isa.OpSRL, isa.OpSRA:
		if err := need(3); err != nil {
			return nil, err
		}
		rd, e1 := reg(0)
		rt, e2 := reg(1)
		sh, e3 := imm(2)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rd: rd, Rt: rt, Imm: int32(sh)})
	case isa.OpMULT, isa.OpMULTU, isa.OpDIV, isa.OpDIVU:
		if err := need(2); err != nil {
			return nil, err
		}
		rs, e1 := reg(0)
		rt, e2 := reg(1)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rs: rs, Rt: rt})
	case isa.OpMFHI, isa.OpMFLO:
		if err := need(1); err != nil {
			return nil, err
		}
		rd, err := reg(0)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rd: rd})
	case isa.OpMTHI, isa.OpMTLO, isa.OpJR:
		if err := need(1); err != nil {
			return nil, err
		}
		rs, err := reg(0)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rs: rs})
	case isa.OpJALR:
		if len(s.Args) == 1 {
			rs, err := reg(0)
			if err != nil {
				return nil, err
			}
			return a.insts(isa.Inst{Op: op, Rd: isa.RegRA, Rs: rs})
		}
		if err := need(2); err != nil {
			return nil, err
		}
		rd, e1 := reg(0)
		rs, e2 := reg(1)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rd: rd, Rs: rs})
	case isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU, isa.OpANDI, isa.OpORI, isa.OpXORI:
		if err := need(3); err != nil {
			return nil, err
		}
		rt, e1 := reg(0)
		rs, e2 := reg(1)
		v, e3 := imm(2)
		if err := firstErr(e1, e2, e3); err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rt: rt, Rs: rs, Imm: int32(v)})
	case isa.OpLUI:
		if err := need(2); err != nil {
			return nil, err
		}
		rt, e1 := reg(0)
		v, e2 := imm(1)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rt: rt, Imm: int32(v)})
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpSB, isa.OpSH, isa.OpSW:
		if err := need(2); err != nil {
			return nil, err
		}
		rt, err := reg(0)
		if err != nil {
			return nil, err
		}
		off, rs, ok, err := memOperand(s.Args[1], s.Line)
		if err != nil {
			return nil, err
		}
		if ok {
			return a.insts(isa.Inst{Op: op, Rt: rt, Rs: rs, Imm: int32(off)})
		}
		// Symbolic form: lui at, %hi(sym); op rt, %lo(sym)(at).
		addr, err := a.addrOperand(s.Args[1], s.Line)
		if err != nil {
			return nil, err
		}
		hi, lo := hiLo(addr)
		return a.insts(
			isa.Inst{Op: isa.OpLUI, Rt: isa.RegAT, Imm: int32(hi)},
			isa.Inst{Op: op, Rt: rt, Rs: isa.RegAT, Imm: lo},
		)
	case isa.OpBEQ, isa.OpBNE:
		if err := need(3); err != nil {
			return nil, err
		}
		rs, e1 := reg(0)
		rt, e2 := reg(1)
		if err := firstErr(e1, e2); err != nil {
			return nil, err
		}
		off, err := branchOff(2, pc)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rs: rs, Rt: rt, Imm: off})
	case isa.OpBLEZ, isa.OpBGTZ, isa.OpBLTZ, isa.OpBGEZ:
		if err := need(2); err != nil {
			return nil, err
		}
		rs, err := reg(0)
		if err != nil {
			return nil, err
		}
		off, err := branchOff(1, pc)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Rs: rs, Imm: off})
	case isa.OpJ, isa.OpJAL:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := a.addrOperand(s.Args[0], s.Line)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Target: addr})
	case isa.OpSYSCALL, isa.OpBREAK:
		return a.insts(isa.Inst{Op: op})
	case isa.OpBITSW:
		if err := need(1); err != nil {
			return nil, err
		}
		v, err := imm(0)
		if err != nil {
			return nil, err
		}
		return a.insts(isa.Inst{Op: op, Imm: int32(v)})
	}
	return nil, errf(s.Line, "unsupported mnemonic %q", s.Op)
}

// luiOri builds the two-word absolute-address load.
func luiOri(rt isa.Reg, addr uint32) (lui, ori isa.Inst) {
	return isa.Inst{Op: isa.OpLUI, Rt: rt, Imm: int32(addr >> 16)},
		isa.Inst{Op: isa.OpORI, Rt: rt, Rs: rt, Imm: int32(addr & 0xffff)}
}

// hiLo splits an address for a lui + signed-offset pair.
func hiLo(addr uint32) (hi uint32, lo int32) {
	lo = int32(int16(addr))
	hi = (addr - uint32(lo)) >> 16
	return hi, lo
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func parseReg(s string, line int) (isa.Reg, error) {
	r, ok := isa.RegByName(strings.TrimSpace(s))
	if !ok {
		return 0, errf(line, "bad register %q", s)
	}
	return r, nil
}

// parseImmOperand parses an integer literal (decimal, hex, octal,
// binary per Go syntax) or a character constant.
func parseImmOperand(s string, line int) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errf(line, "empty immediate")
	}
	if s[0] == '\'' {
		u, err := strconv.Unquote(s)
		if err != nil || len(u) != 1 {
			return 0, errf(line, "bad char constant %s", s)
		}
		return int64(u[0]), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow full-range unsigned hex like 0xffffffff.
		u, uerr := strconv.ParseUint(s, 0, 32)
		if uerr != nil {
			return 0, errf(line, "bad immediate %q", s)
		}
		return int64(int32(u)), nil
	}
	return v, nil
}

// addrOperand resolves a jump/la operand: a symbol, symbol+offset, or
// absolute numeric address.
func (a *assembler) addrOperand(o Operand, line int) (uint32, error) {
	v, err := a.value(o, line)
	if err != nil {
		return 0, err
	}
	return uint32(v), nil
}

// splitMem splits "off(reg)" or "(reg)" memory operands. The offset
// part defaults to "0".
func splitMem(s string) (off, reg string, ok bool) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", "", false
	}
	off = strings.TrimSpace(s[:open])
	if off == "" {
		off = "0"
	}
	reg = strings.TrimSpace(s[open+1 : len(s)-1])
	if _, valid := isa.RegByName(reg); !valid {
		return "", "", false
	}
	return off, reg, true
}

// Disassemble renders the text segment of p as an address-annotated
// listing, resolving branch and jump targets to symbol names where
// possible.
func Disassemble(p *isa.Program) string {
	rev := make(map[uint32]string, len(p.Symbols))
	for name, addr := range p.Symbols {
		if prev, dup := rev[addr]; !dup || name < prev {
			rev[addr] = name
		}
	}
	var b strings.Builder
	for i, w := range p.Text {
		pc := p.TextBase + uint32(i*4)
		if lbl, ok := rev[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		in, err := isa.Decode(w)
		if err != nil {
			fmt.Fprintf(&b, "  0x%08x: .word 0x%08x\n", pc, w)
			continue
		}
		text := in.String()
		if in.IsCondBranch() {
			tgt := in.BranchTarget(pc)
			if lbl, ok := rev[tgt]; ok {
				text = fmt.Sprintf("%s <%s>", text, lbl)
			} else {
				text = fmt.Sprintf("%s <0x%08x>", text, tgt)
			}
		}
		if in.Op == isa.OpJ || in.Op == isa.OpJAL {
			if lbl, ok := rev[in.Target]; ok {
				text = fmt.Sprintf("%s %s", in.Op, lbl)
			}
		}
		fmt.Fprintf(&b, "  0x%08x: %-8s %s\n", pc, fmt.Sprintf("%08x", w), text)
	}
	return b.String()
}
