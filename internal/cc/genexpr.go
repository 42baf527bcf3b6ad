package cc

import (
	"asbr/internal/asm"
	"asbr/internal/isa"
)

// Expression code generation. genExpr pushes the value onto the
// expression-register stack and returns its type.

func (g *gen) genExpr(e Expr) (Type, error) {
	switch x := e.(type) {
	case *NumLit:
		r, err := g.push(x.Line)
		if err != nil {
			return 0, err
		}
		g.emit("li", asm.Reg(r), asm.Imm(int64(int32(x.Val))))
		return TypeInt, nil

	case *Ident:
		if lv, ok := g.lookupLocal(x.Name); ok {
			r, err := g.push(x.Line)
			if err != nil {
				return 0, err
			}
			if lv.inReg {
				g.emit("move", asm.Reg(r), asm.Reg(lv.reg))
			} else {
				g.emit("lw", asm.Reg(r), asm.Mem(int64(lv.off), isa.RegSP))
			}
			return lv.typ, nil
		}
		if gd, ok := g.globals[x.Name]; ok {
			r, err := g.push(x.Line)
			if err != nil {
				return 0, err
			}
			if gd.IsArr {
				g.emit("la", asm.Reg(r), asm.Sym(gd.Name))
				return TypePtr, nil
			}
			g.emit("lw", asm.Reg(r), asm.Sym(gd.Name))
			return TypeInt, nil
		}
		return 0, errf(x.Line, "undefined variable %q", x.Name)

	case *Unary:
		switch x.Op {
		case tokMinus:
			t, err := g.genExpr(x.X)
			if err != nil {
				return 0, err
			}
			g.emit("neg", asm.Reg(g.top()), asm.Reg(g.top()))
			return t, nil
		case tokTilde:
			if _, err := g.genExpr(x.X); err != nil {
				return 0, err
			}
			g.emit("not", asm.Reg(g.top()), asm.Reg(g.top()))
			return TypeInt, nil
		case tokBang:
			if _, err := g.genExpr(x.X); err != nil {
				return 0, err
			}
			g.emit("sltiu", asm.Reg(g.top()), asm.Reg(g.top()), asm.Imm(1))
			return TypeInt, nil
		case tokStar:
			t, err := g.genExpr(x.X)
			if err != nil {
				return 0, err
			}
			if t != TypePtr {
				return 0, errf(x.Line, "dereference of non-pointer")
			}
			g.emit("lw", asm.Reg(g.top()), asm.Mem(0, g.top()))
			return TypeInt, nil
		case tokAmp:
			if _, err := g.genAddr(x.X); err != nil {
				return 0, err
			}
			return TypePtr, nil
		}
		return 0, errf(x.Line, "internal: bad unary op")

	case *Binary:
		return g.genBinary(x)

	case *Cond:
		falseL, endL := g.label(), g.label()
		if err := g.genCondFalse(x.C, falseL); err != nil {
			return 0, err
		}
		d0 := g.depth
		t1, err := g.genExpr(x.T)
		if err != nil {
			return 0, err
		}
		g.emit("j", asm.Sym(endL))
		g.emitLabel(falseL)
		g.depth = d0 // both arms produce into the same register
		t2, err := g.genExpr(x.F)
		if err != nil {
			return 0, err
		}
		g.emitLabel(endL)
		if t1 == TypePtr || t2 == TypePtr {
			return TypePtr, nil
		}
		return TypeInt, nil

	case *Assign:
		return g.genAssign(x)

	case *IncDec:
		op := tokPlusEq
		if x.Op == tokDec {
			op = tokMinusEq
		}
		return g.genAssign(&Assign{Op: op, LV: x.LV, X: &NumLit{Val: 1, Line: x.Line}, Line: x.Line})

	case *Index:
		if _, err := g.genAddr(x); err != nil {
			return 0, err
		}
		g.emit("lw", asm.Reg(g.top()), asm.Mem(0, g.top()))
		return TypeInt, nil

	case *Call:
		return g.genCall(x)
	}
	return 0, errf(exprLine(e), "internal: unknown expression %T", e)
}

// genBinary emits a binary operation, with immediate forms and pointer
// scaling where applicable.
func (g *gen) genBinary(x *Binary) (Type, error) {
	// Short-circuit logical operators produce 0/1.
	if x.Op == tokAndAnd || x.Op == tokOrOr {
		r, err := g.push(x.Line)
		if err != nil {
			return 0, err
		}
		g.pop() // reserve r but evaluate conditions at the same depth
		falseL, endL := g.label(), g.label()
		if x.Op == tokAndAnd {
			if err := g.genCondFalse(x.X, falseL); err != nil {
				return 0, err
			}
			if err := g.genCondFalse(x.Y, falseL); err != nil {
				return 0, err
			}
			g.emit("li", asm.Reg(r), asm.Imm(1))
			g.emit("j", asm.Sym(endL))
			g.emitLabel(falseL)
			g.emit("li", asm.Reg(r), asm.Imm(0))
			g.emitLabel(endL)
		} else {
			trueL := g.label()
			if err := g.genCondTrue(x.X, trueL); err != nil {
				return 0, err
			}
			if err := g.genCondTrue(x.Y, trueL); err != nil {
				return 0, err
			}
			g.emit("li", asm.Reg(r), asm.Imm(0))
			g.emit("j", asm.Sym(endL))
			g.emitLabel(trueL)
			g.emit("li", asm.Reg(r), asm.Imm(1))
			g.emitLabel(endL)
		}
		g.depth++ // result now live in r
		return TypeInt, nil
	}

	// Operand X: register locals are read in place (no copy).
	ra, tl, pa, err := g.operand(x.X)
	if err != nil {
		return 0, err
	}
	// Immediate right operand forms.
	if c, ok := foldConst(x.Y); ok {
		if t, done, err := g.genBinImm(x, tl, int32(c), ra, pa); done || err != nil {
			return t, err
		}
	}
	rb, tr, pb, err := g.operand(x.Y)
	if err != nil {
		return 0, err
	}
	resType := TypeInt
	// Pointer scaling mutates the int-side register, so a direct
	// s-register operand on that side must first be copied out.
	scaleB := (x.Op == tokPlus || x.Op == tokMinus) && tl == TypePtr && tr == TypeInt
	scaleA := x.Op == tokPlus && tr == TypePtr && tl == TypeInt
	if scaleB && !pb {
		r, err := g.push(x.Line)
		if err != nil {
			return 0, err
		}
		g.emit("sll", asm.Reg(r), asm.Reg(rb), asm.Imm(2))
		rb, pb = r, true
	} else if scaleB {
		g.emit("sll", asm.Reg(rb), asm.Reg(rb), asm.Imm(2))
	}
	if scaleA && !pa {
		r, err := g.push(x.Line)
		if err != nil {
			return 0, err
		}
		g.emit("sll", asm.Reg(r), asm.Reg(ra), asm.Imm(2))
		ra, pa = r, true
	} else if scaleA {
		g.emit("sll", asm.Reg(ra), asm.Reg(ra), asm.Imm(2))
	}
	if scaleA || scaleB {
		resType = TypePtr
	}
	// Destination: reuse a pushed operand slot, else allocate one.
	var dst isa.Reg
	pushes := 0
	if pa {
		pushes++
	}
	if pb {
		pushes++
	}
	switch {
	case pa:
		dst = ra
	case pb:
		dst = rb
	default:
		dst, err = g.push(x.Line)
		if err != nil {
			return 0, err
		}
		pushes = 1
	}
	switch x.Op {
	case tokPlus:
		g.emit("addu", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokMinus:
		if tl == TypePtr && tr == TypePtr {
			g.emit("subu", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
			g.emit("sra", asm.Reg(dst), asm.Reg(dst), asm.Imm(2))
		} else {
			g.emit("subu", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
			if tl == TypePtr {
				resType = TypePtr
			}
		}
	case tokStar:
		g.emit("mul", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokSlash:
		g.emit("div", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokPercent:
		g.emit("rem", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokAmp:
		g.emit("and", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokPipe:
		g.emit("or", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokCaret:
		g.emit("xor", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokShl:
		g.emit("sllv", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokShr:
		g.emit("srav", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokLt:
		g.emit("slt", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
	case tokGt:
		g.emit("slt", asm.Reg(dst), asm.Reg(rb), asm.Reg(ra))
	case tokLe:
		g.emit("slt", asm.Reg(dst), asm.Reg(rb), asm.Reg(ra))
		g.emit("xori", asm.Reg(dst), asm.Reg(dst), asm.Imm(1))
	case tokGe:
		g.emit("slt", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
		g.emit("xori", asm.Reg(dst), asm.Reg(dst), asm.Imm(1))
	case tokEq:
		g.emit("xor", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
		g.emit("sltiu", asm.Reg(dst), asm.Reg(dst), asm.Imm(1))
	case tokNe:
		g.emit("xor", asm.Reg(dst), asm.Reg(ra), asm.Reg(rb))
		g.emit("sltu", asm.Reg(dst), asm.Reg(isa.RegZero), asm.Reg(dst))
	default:
		return 0, errf(x.Line, "internal: bad binary op")
	}
	// Collapse the operand slots to one result slot; if the result
	// landed in the upper slot (pointer-scaling scratch above an
	// evaluated operand), copy it down.
	for ; pushes > 1; pushes-- {
		g.pop()
	}
	if g.top() != dst {
		g.emit("move", asm.Reg(g.top()), asm.Reg(dst))
	}
	return resType, nil
}

// operand returns a register holding e's value, reading register
// locals in place (pushed=false) and evaluating anything else onto the
// expression stack (pushed=true).
func (g *gen) operand(e Expr) (r isa.Reg, typ Type, pushed bool, err error) {
	if id, ok := e.(*Ident); ok {
		if lv, found := g.lookupLocal(id.Name); found && lv.inReg {
			return lv.reg, lv.typ, false, nil
		}
	}
	typ, err = g.genExpr(e)
	if err != nil {
		return 0, 0, false, err
	}
	return g.top(), typ, true, nil
}

// genBinImm emits an immediate-operand form when profitable, reading
// the left operand from src (in place when src is the pushed top,
// into a fresh slot when src is a register local). It reports
// done=false to fall back to the register-register path.
func (g *gen) genBinImm(x *Binary, tl Type, c int32, src isa.Reg, pushed bool) (Type, bool, error) {
	fits := func(v int32) bool { return v >= -0x8000 && v <= 0x7fff }
	ufits := func(v int32) bool { return v >= 0 && v <= 0xffff }
	// one emits a single `op dst, src, imm` form.
	one := func(op string, imm int32) (Type, bool, error) {
		dst := src
		if !pushed {
			var err error
			dst, err = g.push(x.Line)
			if err != nil {
				return 0, false, err
			}
		}
		g.emit(op, asm.Reg(dst), asm.Reg(src), asm.Imm(int64(imm)))
		return TypeInt, true, nil
	}
	// notOne emits one, then inverts its 0/1 result.
	notOne := func(op string, imm int32) (Type, bool, error) {
		t, done, err := one(op, imm)
		if err != nil || !done {
			return t, done, err
		}
		g.emit("xori", asm.Reg(g.top()), asm.Reg(g.top()), asm.Imm(1))
		return TypeInt, true, nil
	}
	switch x.Op {
	case tokPlus:
		if tl == TypePtr {
			if fits(c * 4) {
				t, done, err := one("addiu", c*4)
				if done {
					t = TypePtr
				}
				return t, done, err
			}
			return 0, false, nil
		}
		if fits(c) {
			return one("addiu", c)
		}
	case tokMinus:
		if tl == TypePtr {
			if fits(-c * 4) {
				t, done, err := one("addiu", -c*4)
				if done {
					t = TypePtr
				}
				return t, done, err
			}
			return 0, false, nil
		}
		if fits(-c) {
			return one("addiu", -c)
		}
	case tokAmp:
		if ufits(c) {
			return one("andi", c)
		}
	case tokPipe:
		if ufits(c) {
			return one("ori", c)
		}
	case tokCaret:
		if ufits(c) {
			return one("xori", c)
		}
	case tokShl:
		if c >= 0 && c < 32 {
			return one("sll", c)
		}
	case tokShr:
		if c >= 0 && c < 32 {
			return one("sra", c)
		}
	case tokStar:
		// Strength-reduce power-of-two multiplies.
		if c > 0 && c&(c-1) == 0 {
			sh := int32(0)
			for 1<<sh < int(c) {
				sh++
			}
			return one("sll", sh)
		}
	case tokLt:
		if fits(c) {
			return one("slti", c)
		}
	case tokGe:
		if fits(c) {
			return notOne("slti", c)
		}
	case tokLe:
		if fits(c + 1) {
			return one("slti", c+1)
		}
	case tokGt:
		if fits(c + 1) {
			return notOne("slti", c+1)
		}
	}
	return 0, false, nil
}

// genAssign handles simple and compound assignment, leaving the
// assigned value on the stack (assignment is an expression).
func (g *gen) genAssign(x *Assign) (Type, error) {
	// Simple scalar destinations avoid address materialization.
	if id, ok := x.LV.(*Ident); ok {
		if lv, isLocal := g.lookupLocal(id.Name); isLocal {
			if err := g.genAssignRHS(x, func() error {
				r, err := g.push(x.Line)
				if err != nil {
					return err
				}
				if lv.inReg {
					g.emit("move", asm.Reg(r), asm.Reg(lv.reg))
				} else {
					g.emit("lw", asm.Reg(r), asm.Mem(int64(lv.off), isa.RegSP))
				}
				return nil
			}); err != nil {
				return 0, err
			}
			if lv.inReg {
				g.emit("move", asm.Reg(lv.reg), asm.Reg(g.top()))
			} else {
				g.emit("sw", asm.Reg(g.top()), asm.Mem(int64(lv.off), isa.RegSP))
			}
			return lv.typ, nil
		}
		if gd, isGlobal := g.globals[id.Name]; isGlobal {
			if gd.IsArr {
				return 0, errf(x.Line, "cannot assign to array %q", id.Name)
			}
			if err := g.genAssignRHS(x, func() error {
				r, err := g.push(x.Line)
				if err != nil {
					return err
				}
				g.emit("lw", asm.Reg(r), asm.Sym(gd.Name))
				return nil
			}); err != nil {
				return 0, err
			}
			g.emit("sw", asm.Reg(g.top()), asm.Sym(gd.Name))
			return TypeInt, nil
		}
		return 0, errf(x.Line, "undefined variable %q", id.Name)
	}
	// Indexed / dereferenced destination: compute the address once.
	if _, err := g.genAddr(x.LV); err != nil {
		return 0, err
	}
	addr := g.top()
	if err := g.genAssignRHS(x, func() error {
		r, err := g.push(x.Line)
		if err != nil {
			return err
		}
		g.emit("lw", asm.Reg(r), asm.Mem(0, addr))
		return nil
	}); err != nil {
		return 0, err
	}
	g.emit("sw", asm.Reg(g.top()), asm.Mem(0, addr))
	// Drop the address, keep the value on top.
	val, dst := g.top(), g.reg(g.depth-2)
	g.emit("move", asm.Reg(dst), asm.Reg(val))
	g.pop()
	return TypeInt, nil
}

// compoundOps maps a compound assignment operator to its binary
// operator.
var compoundOps = map[tokKind]tokKind{
	tokPlusEq: tokPlus, tokMinusEq: tokMinus, tokStarEq: tokStar,
	tokSlashEq: tokSlash, tokPctEq: tokPercent, tokShlEq: tokShl,
	tokShrEq: tokShr, tokAndEq: tokAmp, tokOrEq: tokPipe, tokXorEq: tokCaret,
}

// syscallCodes holds the v0 syscall code of each syscall builtin.
var syscallCodes = map[string]int{"print": 1, "exit": 10, "putchar": 11}

// genAssignRHS evaluates the right-hand side of an assignment. For
// compound ops, loadCur pushes the current value first.
func (g *gen) genAssignRHS(x *Assign, loadCur func() error) error {
	if x.Op == tokAssign {
		t, err := g.genExpr(x.X)
		if err != nil {
			return err
		}
		return checkAssignable(0, t, x.Line)
	}
	if err := loadCur(); err != nil {
		return err
	}
	binOp := compoundOps[x.Op]
	if _, err := g.genExpr(x.X); err != nil {
		return err
	}
	a, b := g.reg(g.depth-2), g.reg(g.depth-1)
	switch binOp {
	case tokPlus:
		g.emit("addu", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokMinus:
		g.emit("subu", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokStar:
		g.emit("mul", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokSlash:
		g.emit("div", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokPercent:
		g.emit("rem", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokShl:
		g.emit("sllv", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokShr:
		g.emit("srav", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokAmp:
		g.emit("and", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokPipe:
		g.emit("or", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	case tokCaret:
		g.emit("xor", asm.Reg(a), asm.Reg(a), asm.Reg(b))
	default:
		return errf(x.Line, "internal: bad compound op")
	}
	g.pop()
	return nil
}

// genAddr pushes the address of an lvalue and returns the element type.
func (g *gen) genAddr(e Expr) (Type, error) {
	switch x := e.(type) {
	case *Ident:
		if lv, ok := g.lookupLocal(x.Name); ok {
			if lv.inReg {
				return 0, errf(x.Line, "internal: address of register local %q", x.Name)
			}
			r, err := g.push(x.Line)
			if err != nil {
				return 0, err
			}
			g.emit("addiu", asm.Reg(r), asm.Reg(isa.RegSP), asm.Imm(int64(lv.off)))
			return lv.typ, nil
		}
		if gd, ok := g.globals[x.Name]; ok {
			r, err := g.push(x.Line)
			if err != nil {
				return 0, err
			}
			g.emit("la", asm.Reg(r), asm.Sym(gd.Name))
			return TypeInt, nil
		}
		return 0, errf(x.Line, "undefined variable %q", x.Name)
	case *Index:
		bt, err := g.genExpr(x.Base)
		if err != nil {
			return 0, err
		}
		if bt != TypePtr {
			return 0, errf(x.Line, "indexing non-pointer")
		}
		if c, ok := foldConst(x.Idx); ok && c*4 >= -0x8000 && c*4 <= 0x7fff {
			if c != 0 {
				g.emit("addiu", asm.Reg(g.top()), asm.Reg(g.top()), asm.Imm(int64(int32(c*4))))
			}
			return TypeInt, nil
		}
		if _, err := g.genExpr(x.Idx); err != nil {
			return 0, err
		}
		a, b := g.reg(g.depth-2), g.reg(g.depth-1)
		g.emit("sll", asm.Reg(b), asm.Reg(b), asm.Imm(2))
		g.emit("addu", asm.Reg(a), asm.Reg(a), asm.Reg(b))
		g.pop()
		return TypeInt, nil
	case *Unary:
		if x.Op == tokStar {
			t, err := g.genExpr(x.X)
			if err != nil {
				return 0, err
			}
			if t != TypePtr {
				return 0, errf(x.Line, "dereference of non-pointer")
			}
			return TypeInt, nil
		}
	}
	return 0, errf(exprLine(e), "expression is not addressable")
}

// genCall emits a function call, including the print/putchar/exit
// syscall builtins.
func (g *gen) genCall(x *Call) (Type, error) {
	if _, userDefined := g.funcs[x.Name]; !userDefined {
		switch x.Name {
		case "print", "putchar", "exit":
			if len(x.Args) != 1 {
				return 0, errf(x.Line, "%s takes one argument", x.Name)
			}
			if _, err := g.genExpr(x.Args[0]); err != nil {
				return 0, err
			}
			g.emit("move", asm.Reg(isa.RegA0), asm.Reg(g.top()))
			g.pop()
			g.emit("li", asm.Reg(isa.RegV0), asm.Imm(int64(syscallCodes[x.Name])))
			g.emit("syscall")
			return TypeVoid, nil
		case "bitsw":
			c, ok := foldConst(x.Args[0])
			if len(x.Args) != 1 || !ok {
				return 0, errf(x.Line, "bitsw takes one constant argument")
			}
			g.emit("bitsw", asm.Imm(int64(c)))
			return TypeVoid, nil
		}
		return 0, errf(x.Line, "undefined function %q", x.Name)
	}
	sig := g.funcs[x.Name]
	if len(x.Args) != len(sig.params) {
		return 0, errf(x.Line, "%s expects %d arguments, got %d", x.Name, len(sig.params), len(x.Args))
	}
	d0 := g.depth
	for _, a := range x.Args {
		t, err := g.genExpr(a)
		if err != nil {
			return 0, err
		}
		if t == TypeVoid {
			return 0, errf(x.Line, "void value passed to %s", x.Name)
		}
	}
	// Stack args first (slots beyond a3), then register args.
	for i := len(x.Args) - 1; i >= 4; i-- {
		g.emit("sw", asm.Reg(g.reg(d0+i)), asm.Mem(int64(4*i), isa.RegSP))
	}
	n := len(x.Args)
	if n > 4 {
		n = 4
	}
	for i := 0; i < n; i++ {
		g.emit("move", asm.Reg(isa.RegA0+isa.Reg(i)), asm.Reg(g.reg(d0+i)))
	}
	g.depth = d0
	// Spill live expression registers across the call.
	for i := 0; i < d0; i++ {
		g.emit("sw", asm.Reg(g.reg(i)), asm.Mem(int64(g.spillBase+4*i), isa.RegSP))
	}
	g.emit("jal", asm.Sym(x.Name))
	for i := 0; i < d0; i++ {
		g.emit("lw", asm.Reg(g.reg(i)), asm.Mem(int64(g.spillBase+4*i), isa.RegSP))
	}
	if sig.ret == TypeVoid {
		return TypeVoid, nil
	}
	r, err := g.push(x.Line)
	if err != nil {
		return 0, err
	}
	g.emit("move", asm.Reg(r), asm.Reg(isa.RegV0))
	return sig.ret, nil
}
