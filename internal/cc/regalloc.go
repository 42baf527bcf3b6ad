package cc

import (
	"sort"

	"asbr/internal/isa"
)

// Register allocation of locals. The hottest scalar locals (by static
// use count) are promoted to the callee-saved registers s0..s7, the
// way the paper's gcc toolchain keeps loop-carried values in
// registers. This matters directly for ASBR: a branch on a
// register-resident local (e.g. `if (sign)`) compiles to a single
// zero-comparison branch whose condition register was defined by real
// computation possibly many instructions — or basic blocks — earlier,
// which is exactly the def-to-branch distance the fold threshold
// feeds on (paper Figure 2).
//
// Eligibility: the local must be declared exactly once in the function
// (sidesteps shadowing) and must never have its address taken.

// regLocalPool lists the registers available for register-resident
// locals: the eight MIPS callee-saved s-registers plus four registers
// this ABI leaves otherwise unused (k0/k1, fp used as a plain saved
// register, and gp — the code generator never emits gp-relative
// addressing). All are saved/restored by the function prologue and
// epilogue, so the callee-saved contract holds for every member.
var regLocalPool = []isa.Reg{
	isa.RegS0, isa.RegS0 + 1, isa.RegS0 + 2, isa.RegS0 + 3,
	isa.RegS0 + 4, isa.RegS0 + 5, isa.RegS0 + 6, isa.RegS7,
	isa.RegK0, isa.RegK1, isa.RegFP, isa.RegGP,
}

// leafExtraPool extends the pool for leaf functions (no calls, no
// syscall builtins): the argument and second-result registers are
// dead there except for incoming parameters, which the caller of
// collectRegLocals excludes by count.
var leafExtraPool = []isa.Reg{isa.RegV1, isa.RegA3, isa.RegA2, isa.RegA1, isa.RegA0}

// collectRegLocals decides the register assignment for fn's locals,
// and counts the declarations (parameters included) left in the stack
// frame, one slot each. hasCall must be true if the body contains any
// call (including the print/exit/putchar/bitsw builtins).
func collectRegLocals(fn *FuncDecl, hasCall bool) (assign map[string]isa.Reg, stackSlots int) {
	declCount := map[string]int{}
	useCount := map[string]int{}
	addrTaken := map[string]bool{}

	for _, prm := range fn.Params {
		declCount[prm.Name]++
	}

	var walkS func(Stmt)
	var walkE func(Expr)
	walkE = func(e Expr) {
		switch x := e.(type) {
		case *Ident:
			useCount[x.Name]++
		case *Unary:
			if x.Op == tokAmp {
				if id, ok := x.X.(*Ident); ok {
					addrTaken[id.Name] = true
				}
			}
			walkE(x.X)
		case *Binary:
			walkE(x.X)
			walkE(x.Y)
		case *Cond:
			walkE(x.C)
			walkE(x.T)
			walkE(x.F)
		case *Assign:
			walkE(x.LV)
			walkE(x.X)
		case *IncDec:
			walkE(x.LV)
		case *Index:
			walkE(x.Base)
			walkE(x.Idx)
		case *Call:
			for _, a := range x.Args {
				walkE(a)
			}
		}
	}
	walkS = func(s Stmt) {
		switch x := s.(type) {
		case *Block:
			for _, st := range x.Stmts {
				walkS(st)
			}
		case *DeclStmt:
			declCount[x.Name]++
			if x.Init != nil {
				walkE(x.Init)
			}
		case *ExprStmt:
			walkE(x.X)
		case *IfStmt:
			walkE(x.Cond)
			walkS(x.Then)
			if x.Else != nil {
				walkS(x.Else)
			}
		case *WhileStmt:
			walkE(x.Cond)
			walkS(x.Body)
		case *DoWhileStmt:
			walkS(x.Body)
			walkE(x.Cond)
		case *ForStmt:
			if x.Init != nil {
				walkS(x.Init)
			}
			if x.Cond != nil {
				walkE(x.Cond)
			}
			if x.Post != nil {
				walkE(x.Post)
			}
			walkS(x.Body)
		case *ReturnStmt:
			if x.X != nil {
				walkE(x.X)
			}
		}
	}
	walkS(fn.Body)

	type cand struct {
		name string
		uses int
	}
	var cands []cand
	for name, n := range declCount {
		if n != 1 || addrTaken[name] {
			continue
		}
		if useCount[name] == 0 {
			continue
		}
		cands = append(cands, cand{name, useCount[name]})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].uses != cands[j].uses {
			return cands[i].uses > cands[j].uses
		}
		return cands[i].name < cands[j].name
	})
	pool := regLocalPool
	if !hasCall {
		for _, r := range leafExtraPool {
			// a0..a(n-1) carry incoming parameters; leave them alone.
			if r >= isa.RegA0 && int(r-isa.RegA0) < len(fn.Params) {
				continue
			}
			pool = append(pool[:len(pool):len(pool)], r)
		}
	}
	assign = make(map[string]isa.Reg)
	for i, c := range cands {
		if i >= len(pool) {
			break
		}
		assign[c.name] = pool[i]
	}
	for name, n := range declCount {
		if _, inReg := assign[name]; !inReg {
			stackSlots += n
		}
	}
	return assign, stackSlots
}
