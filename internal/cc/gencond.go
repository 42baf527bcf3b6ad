package cc

import (
	"asbr/internal/asm"
	"asbr/internal/isa"
)

// Conditional-branch generation. Zero comparisons compile to the
// ISA's direct branch forms (beqz/bnez/blez/bgtz/bltz/bgez), which are
// exactly the branches ASBR can fold; orderings compile to slt followed
// by a zero-comparison branch on the slt result (also foldable);
// two-register equality uses beq/bne (not foldable — the BDT holds
// zero comparisons only, as in the paper).

// genCondFalse branches to label when e is false.
func (g *gen) genCondFalse(e Expr, label string) error { return g.genCond(e, label, false) }

// genCondTrue branches to label when e is true.
func (g *gen) genCondTrue(e Expr, label string) error { return g.genCond(e, label, true) }

// zeroBranches holds, per comparison, the branch mnemonics for a zero
// comparison `x OP 0`: taken when the comparison holds, then when it
// fails.
var zeroBranches = map[tokKind][2]string{
	tokEq: {"beqz", "bnez"},
	tokNe: {"bnez", "beqz"},
	tokLt: {"bltz", "bgez"},
	tokLe: {"blez", "bgtz"},
	tokGt: {"bgtz", "blez"},
	tokGe: {"bgez", "bltz"},
}

// zeroBranch maps (comparison, branch-when) to the branch mnemonic for
// a zero comparison `x OP 0`.
func zeroBranch(op tokKind, when bool) string {
	if when {
		return zeroBranches[op][0]
	}
	return zeroBranches[op][1]
}

// mirrorCmp flips a comparison's operands: a OP b == b mirror(OP) a.
func mirrorCmp(op tokKind) tokKind {
	switch op {
	case tokLt:
		return tokGt
	case tokGt:
		return tokLt
	case tokLe:
		return tokGe
	case tokGe:
		return tokLe
	}
	return op // == and != are symmetric
}

func isCmp(op tokKind) bool {
	switch op {
	case tokEq, tokNe, tokLt, tokLe, tokGt, tokGe:
		return true
	}
	return false
}

// genCond branches to label when e evaluates to `when`.
func (g *gen) genCond(e Expr, label string, when bool) error {
	switch x := e.(type) {
	case *NumLit:
		if (x.Val != 0) == when {
			g.emit("j", asm.Sym(label))
		}
		return nil
	case *Unary:
		if x.Op == tokBang {
			return g.genCond(x.X, label, !when)
		}
	case *Binary:
		switch {
		case x.Op == tokAndAnd:
			if !when {
				if err := g.genCond(x.X, label, false); err != nil {
					return err
				}
				return g.genCond(x.Y, label, false)
			}
			mid := g.label()
			if err := g.genCond(x.X, mid, false); err != nil {
				return err
			}
			if err := g.genCond(x.Y, label, true); err != nil {
				return err
			}
			g.emitLabel(mid)
			return nil
		case x.Op == tokOrOr:
			if when {
				if err := g.genCond(x.X, label, true); err != nil {
					return err
				}
				return g.genCond(x.Y, label, true)
			}
			mid := g.label()
			if err := g.genCond(x.X, mid, true); err != nil {
				return err
			}
			if err := g.genCond(x.Y, label, false); err != nil {
				return err
			}
			g.emitLabel(mid)
			return nil
		case isCmp(x.Op):
			// x OP 0 / 0 OP y: direct zero-comparison branch. A
			// register-resident local is branched on in place, with
			// no copy — this preserves the real def-to-branch
			// distance the ASBR threshold compares against.
			if c, ok := foldConst(x.Y); ok && c == 0 {
				if r, ok := g.regLocal(x.X); ok {
					g.emit(zeroBranch(x.Op, when), asm.Reg(r), asm.Sym(label))
					return nil
				}
				if _, err := g.genExpr(x.X); err != nil {
					return err
				}
				g.emit(zeroBranch(x.Op, when), asm.Reg(g.top()), asm.Sym(label))
				g.pop()
				return nil
			}
			if c, ok := foldConst(x.X); ok && c == 0 {
				if r, ok := g.regLocal(x.Y); ok {
					g.emit(zeroBranch(mirrorCmp(x.Op), when), asm.Reg(r), asm.Sym(label))
					return nil
				}
				if _, err := g.genExpr(x.Y); err != nil {
					return err
				}
				g.emit(zeroBranch(mirrorCmp(x.Op), when), asm.Reg(g.top()), asm.Sym(label))
				g.pop()
				return nil
			}
			// Two-register equality: native beq/bne.
			if x.Op == tokEq || x.Op == tokNe {
				ra, pa, err := g.condOperand(x.X)
				if err != nil {
					return err
				}
				rb, pb, err := g.condOperand(x.Y)
				if err != nil {
					return err
				}
				mn := "beq"
				if (x.Op == tokNe) == when {
					mn = "bne"
				}
				g.emit(mn, asm.Reg(ra), asm.Reg(rb), asm.Sym(label))
				if pb {
					g.pop()
				}
				if pa {
					g.pop()
				}
				return nil
			}
			// Orderings: one slt (or slti) and a zero-comparison
			// branch on its result — the foldable pattern.
			return g.genOrderingCond(x, label, when)
		}
	}
	// General case: test against zero, in place for register locals.
	mn := "beqz"
	if when {
		mn = "bnez"
	}
	if r, ok := g.regLocal(e); ok {
		g.emit(mn, asm.Reg(r), asm.Sym(label))
		return nil
	}
	t, err := g.genExpr(e)
	if err != nil {
		return err
	}
	if t == TypeVoid {
		return errf(exprLine(e), "void value used as condition")
	}
	g.emit(mn, asm.Reg(g.top()), asm.Sym(label))
	g.pop()
	return nil
}

// genOrderingCond emits a <,<=,>,>= condition branch as a single
// slt/slti plus a zero-comparison branch.
func (g *gen) genOrderingCond(x *Binary, label string, when bool) error {
	// Constant right operand: slti with possible +1 adjustment.
	if c, ok := foldConst(x.Y); ok && c >= -0x8000 && c <= 0x7ffe {
		cmp := c
		inv := false
		switch x.Op {
		case tokLt: // a < c
		case tokGe: // !(a < c)
			inv = true
		case tokLe: // a < c+1
			cmp = c + 1
		case tokGt: // !(a < c+1)
			cmp = c + 1
			inv = true
		}
		ra, pa, err := g.condOperand(x.X)
		if err != nil {
			return err
		}
		dst, err := g.push(x.Line)
		if err != nil {
			return err
		}
		g.emit("slti", asm.Reg(dst), asm.Reg(ra), asm.Imm(int64(cmp)))
		g.emit(zeroTest(when != inv), asm.Reg(dst), asm.Sym(label))
		g.pop()
		if pa {
			g.pop()
		}
		return nil
	}
	ra, pa, err := g.condOperand(x.X)
	if err != nil {
		return err
	}
	rb, pb, err := g.condOperand(x.Y)
	if err != nil {
		return err
	}
	swap := x.Op == tokGt || x.Op == tokLe
	inv := x.Op == tokGe || x.Op == tokLe
	dst, err := g.push(x.Line)
	if err != nil {
		return err
	}
	if swap {
		g.emit("slt", asm.Reg(dst), asm.Reg(rb), asm.Reg(ra))
	} else {
		g.emit("slt", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	}
	g.emit(zeroTest(when != inv), asm.Reg(dst), asm.Sym(label))
	g.pop()
	if pb {
		g.pop()
	}
	if pa {
		g.pop()
	}
	return nil
}

// zeroTest returns the branch mnemonic testing a boolean register.
func zeroTest(branchIfTrue bool) string {
	if branchIfTrue {
		return "bnez"
	}
	return "beqz"
}

// condOperand returns a register holding e's value: the s-register
// itself for register locals (no expression-stack slot consumed), or
// an expression register (pushed=true).
func (g *gen) condOperand(e Expr) (isa.Reg, bool, error) {
	if r, ok := g.regLocal(e); ok {
		return r, false, nil
	}
	if _, err := g.genExpr(e); err != nil {
		return 0, false, err
	}
	return g.top(), true, nil
}

// regLocal reports the s-register of e when e is a register-resident
// local variable reference.
func (g *gen) regLocal(e Expr) (isa.Reg, bool) {
	id, ok := e.(*Ident)
	if !ok {
		return 0, false
	}
	lv, ok := g.lookupLocal(id.Name)
	if !ok || !lv.inReg {
		return 0, false
	}
	return lv.reg, true
}
