package cc

import (
	"asbr/internal/asm"
	"asbr/internal/isa"
)

// Statement code generation. Loops are rotated (single backward
// conditional branch per iteration), the common shape in embedded
// compiler output and the shape the paper's loop-branch analysis
// assumes.

func (g *gen) genBlock(b *Block) error {
	g.openScope()
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	g.closeScope()
	return nil
}

func (g *gen) genStmt(s Stmt) error {
	g.rotate()
	switch x := s.(type) {
	case *Block:
		return g.genBlock(x)
	case *DeclStmt:
		lv, err := g.declareLocal(x.Name, x.Typ, x.Line)
		if err != nil {
			return err
		}
		if x.Init != nil {
			typ, err := g.genExpr(x.Init)
			if err != nil {
				return err
			}
			if err := checkAssignable(x.Typ, typ, x.Line); err != nil {
				return err
			}
			if lv.inReg {
				g.emit("move", asm.Reg(lv.reg), asm.Reg(g.top()))
			} else {
				g.emit("sw", asm.Reg(g.top()), asm.Mem(int64(lv.off), isa.RegSP))
			}
			g.pop()
		}
		return nil
	case *ExprStmt:
		if as, ok := x.X.(*Assign); ok {
			return g.genAssignVoid(as)
		}
		if inc, ok := x.X.(*IncDec); ok {
			op := tokPlusEq
			if inc.Op == tokDec {
				op = tokMinusEq
			}
			return g.genAssignVoid(&Assign{Op: op, LV: inc.LV, X: &NumLit{Val: 1, Line: inc.Line}, Line: inc.Line})
		}
		typ, err := g.genExpr(x.X)
		if err != nil {
			return err
		}
		if typ != TypeVoid {
			g.pop()
		}
		return nil
	case *IfStmt:
		elseL := g.label()
		if err := g.genCondFalse(x.Cond, elseL); err != nil {
			return err
		}
		if err := g.genStmt(x.Then); err != nil {
			return err
		}
		if x.Else != nil {
			endL := g.label()
			g.emit("j", asm.Sym(endL))
			g.emitLabel(elseL)
			if err := g.genStmt(x.Else); err != nil {
				return err
			}
			g.emitLabel(endL)
		} else {
			g.emitLabel(elseL)
		}
		return nil
	case *WhileStmt:
		condL, bodyL, endL := g.label(), g.label(), g.label()
		g.emit("j", asm.Sym(condL))
		g.emitLabel(bodyL)
		g.breakLbl = append(g.breakLbl, endL)
		g.contLbl = append(g.contLbl, condL)
		if err := g.genStmt(x.Body); err != nil {
			return err
		}
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		g.emitLabel(condL)
		if err := g.genCondTrue(x.Cond, bodyL); err != nil {
			return err
		}
		g.emitLabel(endL)
		return nil
	case *DoWhileStmt:
		bodyL, condL, endL := g.label(), g.label(), g.label()
		g.emitLabel(bodyL)
		g.breakLbl = append(g.breakLbl, endL)
		g.contLbl = append(g.contLbl, condL)
		if err := g.genStmt(x.Body); err != nil {
			return err
		}
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		g.emitLabel(condL)
		if err := g.genCondTrue(x.Cond, bodyL); err != nil {
			return err
		}
		g.emitLabel(endL)
		return nil
	case *ForStmt:
		g.openScope() // for-init declarations scope to the loop
		if x.Init != nil {
			if err := g.genStmt(x.Init); err != nil {
				return err
			}
		}
		condL, bodyL, contL, endL := g.label(), g.label(), g.label(), g.label()
		g.emit("j", asm.Sym(condL))
		g.emitLabel(bodyL)
		g.breakLbl = append(g.breakLbl, endL)
		g.contLbl = append(g.contLbl, contL)
		if err := g.genStmt(x.Body); err != nil {
			return err
		}
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		g.emitLabel(contL)
		if x.Post != nil {
			typ, err := g.genExpr(x.Post)
			if err != nil {
				return err
			}
			if typ != TypeVoid {
				g.pop()
			}
		}
		g.emitLabel(condL)
		if x.Cond != nil {
			if err := g.genCondTrue(x.Cond, bodyL); err != nil {
				return err
			}
		} else {
			g.emit("j", asm.Sym(bodyL))
		}
		g.emitLabel(endL)
		g.closeScope()
		return nil
	case *ReturnStmt:
		if x.X != nil {
			if g.fn.Ret == TypeVoid {
				return errf(x.Line, "void function %q returns a value", g.fn.Name)
			}
			if _, err := g.genExpr(x.X); err != nil {
				return err
			}
			g.emit("move", asm.Reg(isa.RegV0), asm.Reg(g.top()))
			g.pop()
		} else if g.fn.Ret != TypeVoid {
			return errf(x.Line, "non-void function %q returns nothing", g.fn.Name)
		}
		g.emit("j", asm.Sym(g.retLbl))
		return nil
	case *BreakStmt:
		if len(g.breakLbl) == 0 {
			return errf(x.Line, "break outside loop")
		}
		g.emit("j", asm.Sym(g.breakLbl[len(g.breakLbl)-1]))
		return nil
	case *ContinueStmt:
		if len(g.contLbl) == 0 {
			return errf(x.Line, "continue outside loop")
		}
		g.emit("j", asm.Sym(g.contLbl[len(g.contLbl)-1]))
		return nil
	}
	return errf(0, "internal: unknown statement %T", s)
}

// checkAssignable verifies a value of type src can initialize/assign
// dst. MiniC is permissive about int<->pointer (it is a systems
// subset), but void is never a value.
func checkAssignable(dst, src Type, line int) error {
	if src == TypeVoid {
		return errf(line, "void value used")
	}
	return nil
}

// genAssignVoid emits a statement-level assignment whose value is
// discarded, with fast paths writing register locals directly: common
// forms like `x = 5`, `x = y`, `x = a OP b`, and `x OP= e` avoid the
// expression-stack round trip entirely. This matters beyond code size:
// the shorter def chain is what the §5.1 scheduling pass and the ASBR
// distance analysis work against.
func (g *gen) genAssignVoid(x *Assign) error {
	id, ok := x.LV.(*Ident)
	if ok {
		if lv, isLocal := g.lookupLocal(id.Name); isLocal && lv.inReg {
			if x.Op == tokAssign {
				switch rhs := x.X.(type) {
				case *NumLit:
					g.emit("li", asm.Reg(lv.reg), asm.Imm(int64(int32(rhs.Val))))
					return nil
				case *Ident:
					if src, isReg := g.regLocal(rhs); isReg {
						g.emit("move", asm.Reg(lv.reg), asm.Reg(src))
						return nil
					}
				}
			} else if c, isConst := foldConst(x.X); isConst {
				// Compound op with a constant: in-place on the s-reg.
				if done, err := g.compoundImm(lv.reg, x.Op, int32(c), x.Line); done || err != nil {
					return err
				}
			}
		}
	}
	typ, err := g.genExpr(x)
	if err != nil {
		return err
	}
	if typ != TypeVoid {
		g.pop()
	}
	return nil
}

// compoundImm emits `r OP= c` in place when a single immediate
// instruction expresses it.
func (g *gen) compoundImm(r isa.Reg, op tokKind, c int32, line int) (bool, error) {
	fits := func(v int32) bool { return v >= -0x8000 && v <= 0x7fff }
	ufits := func(v int32) bool { return v >= 0 && v <= 0xffff }
	switch op {
	case tokPlusEq:
		if fits(c) {
			g.emit("addiu", asm.Reg(r), asm.Reg(r), asm.Imm(int64(c)))
			return true, nil
		}
	case tokMinusEq:
		if fits(-c) {
			g.emit("addiu", asm.Reg(r), asm.Reg(r), asm.Imm(int64(-c)))
			return true, nil
		}
	case tokAndEq:
		if ufits(c) {
			g.emit("andi", asm.Reg(r), asm.Reg(r), asm.Imm(int64(c)))
			return true, nil
		}
	case tokOrEq:
		if ufits(c) {
			g.emit("ori", asm.Reg(r), asm.Reg(r), asm.Imm(int64(c)))
			return true, nil
		}
	case tokXorEq:
		if ufits(c) {
			g.emit("xori", asm.Reg(r), asm.Reg(r), asm.Imm(int64(c)))
			return true, nil
		}
	case tokShlEq:
		if c >= 0 && c < 32 {
			g.emit("sll", asm.Reg(r), asm.Reg(r), asm.Imm(int64(c)))
			return true, nil
		}
	case tokShrEq:
		if c >= 0 && c < 32 {
			g.emit("sra", asm.Reg(r), asm.Reg(r), asm.Imm(int64(c)))
			return true, nil
		}
	}
	return false, nil
}
