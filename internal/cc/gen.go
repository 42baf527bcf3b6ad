package cc

import (
	"fmt"
	"strconv"

	"asbr/internal/asm"
	"asbr/internal/isa"
)

// Code generation strategy: expression-stack code over the caller-
// saved temporaries t0..t9, with all locals resident in the stack
// frame. Around calls, live expression registers spill to dedicated
// frame slots. The style matches the straightforward code of embedded
// compilers of the paper's era and leaves the def-to-branch distance
// work to the dedicated scheduling pass (package sched, paper §5.1).
//
// Frame layout (offsets from sp after the prologue):
//
//	sp+0  .. : outgoing-argument area (calls with >4 args; 16B minimum)
//	          + expression spill slots (10 words, only if the fn calls)
//	          + locals (one word each, never reused across shadowing)
//	frame-4  : saved ra
//
// Calling convention: args 0..3 in a0..a3, the rest at caller sp+4*i;
// result in v0. All parameters are copied to local slots at entry.

// exprRegs is the expression register stack, bottom to top.
var exprRegs = []isa.Reg{
	isa.RegT0, isa.RegT0 + 1, isa.RegT0 + 2, isa.RegT0 + 3,
	isa.RegT0 + 4, isa.RegT0 + 5, isa.RegT0 + 6, isa.RegT7,
	isa.RegT8, isa.RegT9,
}

const spillSlots = 10 // must equal len(exprRegs)

type localVar struct {
	typ   Type
	off   int     // frame offset from sp (stack-resident locals)
	reg   isa.Reg // s-register (register-allocated locals)
	inReg bool
}

type funcSig struct {
	ret     Type
	params  []Param
	defined bool
}

type gen struct {
	globals map[string]*GlobalDecl
	funcs   map[string]*funcSig
	text    []asm.Stmt
	data    []asm.Stmt
	args    []asm.Operand // backing store of the statements' Args
	labelN  int

	// Per-function state.
	fn        *FuncDecl
	scopes    []map[string]localVar
	nLocals   int
	localBase int
	spillBase int
	depth     int
	regBase   int // rotating base into exprRegs (see rotate)
	breakLbl  []string
	contLbl   []string
	retLbl    string
	regAssign map[string]isa.Reg // locals promoted to s-registers
	usedSRegs []isa.Reg
}

// Compile translates MiniC source to assembly text for package asm.
func Compile(src string) (string, error) {
	stmts, err := compile(src)
	if err != nil {
		return "", err
	}
	return asm.Format(stmts), nil
}

// CompileToProgram compiles and assembles MiniC source. The generated
// statements go to the assembler as they are, never printed and read
// back; the program equals asm.Assemble(Compile(src))'s.
func CompileToProgram(src string) (*isa.Program, error) {
	stmts, err := compile(src)
	if err != nil {
		return nil, err
	}
	p, err := asm.AssembleStmts(stmts)
	if err != nil {
		return nil, fmt.Errorf("cc: internal: generated assembly rejected: %v", err)
	}
	return p, nil
}

func compile(src string) ([]asm.Stmt, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Generate(f)
}

// Generate emits the assembly statements of a parsed file: the .text
// segment, then the .data segment if there are globals. Each
// statement's Line is its line in the asm.Format text.
func Generate(f *File) ([]asm.Stmt, error) {
	g := &gen{
		globals: make(map[string]*GlobalDecl),
		funcs:   make(map[string]*funcSig),
		text:    []asm.Stmt{{Op: ".text"}},
		data:    []asm.Stmt{{Op: ".data"}},
	}
	for _, gd := range f.Globals {
		if _, dup := g.globals[gd.Name]; dup {
			return nil, errf(gd.Line, "duplicate global %q", gd.Name)
		}
		g.globals[gd.Name] = gd
		g.emitGlobal(gd)
	}
	for _, fn := range f.Funcs {
		if _, dup := g.funcs[fn.Name]; dup {
			return nil, errf(fn.Line, "duplicate function %q", fn.Name)
		}
		if _, shadow := g.globals[fn.Name]; shadow {
			return nil, errf(fn.Line, "function %q collides with a global", fn.Name)
		}
		g.funcs[fn.Name] = &funcSig{ret: fn.Ret, params: fn.Params, defined: true}
	}
	for _, fn := range f.Funcs {
		if err := g.genFunc(fn); err != nil {
			return nil, err
		}
	}
	text := Peephole(g.text[1:]) // compacts in place, after the .text directive
	out := g.text[:1+len(text)]
	if len(g.data) > 1 {
		out = append(out, g.data...)
	}
	for i := range out {
		out[i].Line = i + 1
	}
	return out, nil
}

func (g *gen) emitGlobal(gd *GlobalDecl) {
	if !gd.IsArr {
		v := int64(0)
		if gd.HasInit {
			v = gd.Init[0]
		}
		g.data = append(g.data, asm.Stmt{Label: gd.Name, Op: ".word", Args: g.operands(asm.Imm(int64(int32(v))))})
		return
	}
	if len(gd.Init) == 0 {
		g.data = append(g.data, asm.Stmt{Label: gd.Name, Op: ".space", Args: g.operands(asm.Imm(int64(gd.Size * 4)))})
		return
	}
	words := make([]asm.Operand, 0, len(gd.Init))
	for _, v := range gd.Init {
		words = append(words, asm.Imm(int64(int32(v))))
	}
	g.data = append(g.data, asm.Stmt{Label: gd.Name, Op: ".word", Args: words})
	if rest := gd.Size - len(gd.Init); rest > 0 {
		g.data = append(g.data, asm.Stmt{Op: ".space", Args: g.operands(asm.Imm(int64(rest * 4)))})
	}
}

func (g *gen) label() string {
	g.labelN++
	return ".L" + strconv.Itoa(g.labelN)
}

// operands copies args into the operand store and returns the copy, so
// that statements share a few large allocations.
func (g *gen) operands(args ...asm.Operand) []asm.Operand {
	if cap(g.args)-len(g.args) < len(args) {
		g.args = make([]asm.Operand, 0, max(2*cap(g.args), 256))
	}
	n := len(g.args)
	g.args = append(g.args, args...)
	return g.args[n:len(g.args):len(g.args)]
}

// emit appends the instruction `op args...` to the text segment.
func (g *gen) emit(op string, args ...asm.Operand) {
	g.text = append(g.text, asm.Stmt{Op: op, Args: g.operands(args...)})
}

func (g *gen) emitLabel(l string) {
	g.text = append(g.text, asm.Stmt{Label: l})
}

// reg returns the expression register at stack position i. The base
// rotates between statements (see rotate), so consecutive statements
// use different temporaries — this removes false output/anti
// dependences through t0 that would otherwise serialize basic blocks
// and defeat the §5.1 scheduling pass.
func (g *gen) reg(i int) isa.Reg { return exprRegs[(g.regBase+i)%len(exprRegs)] }

// top returns the register holding the current expression result.
func (g *gen) top() isa.Reg { return g.reg(g.depth - 1) }

// rotate advances the expression-register base at a statement
// boundary (only valid with an empty expression stack).
func (g *gen) rotate() {
	if g.depth == 0 {
		g.regBase = (g.regBase + 3) % len(exprRegs)
	}
}

func (g *gen) push(line int) (isa.Reg, error) {
	if g.depth >= len(exprRegs) {
		return 0, errf(line, "expression too complex (more than %d live temporaries)", len(exprRegs))
	}
	g.depth++
	return g.top(), nil
}

func (g *gen) pop() { g.depth-- }

// Scope handling.

func (g *gen) openScope()  { g.scopes = append(g.scopes, map[string]localVar{}) }
func (g *gen) closeScope() { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *gen) declareLocal(name string, typ Type, line int) (localVar, error) {
	cur := g.scopes[len(g.scopes)-1]
	if _, dup := cur[name]; dup {
		return localVar{}, errf(line, "duplicate declaration of %q in this scope", name)
	}
	if r, ok := g.regAssign[name]; ok {
		lv := localVar{typ: typ, reg: r, inReg: true}
		cur[name] = lv
		return lv, nil
	}
	lv := localVar{typ: typ, off: g.localBase + 4*g.nLocals}
	g.nLocals++
	cur[name] = lv
	return lv, nil
}

func (g *gen) lookupLocal(name string) (localVar, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if lv, ok := g.scopes[i][name]; ok {
			return lv, true
		}
	}
	return localVar{}, false
}

// countCalls pre-walks a function body for call presence and the
// maximum argument count, to size the outgoing-arg and spill areas.
func countCalls(s Stmt) (has bool, maxArgs int) {
	var walkS func(Stmt)
	var walkE func(Expr)
	walkE = func(e Expr) {
		switch x := e.(type) {
		case *Unary:
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
			has = true
			if len(x.Args) > maxArgs {
				maxArgs = len(x.Args)
			}
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
	walkS(s)
	return has, maxArgs
}

func (g *gen) genFunc(fn *FuncDecl) error {
	g.fn = fn
	g.scopes = nil
	g.nLocals = 0
	g.depth = 0
	g.breakLbl, g.contLbl = nil, nil
	g.retLbl = ".Lret_" + fn.Name

	hasCall, maxArgs := countCalls(fn.Body)
	argArea := 0
	spillArea := 0
	if hasCall {
		if maxArgs < 4 {
			maxArgs = 4
		}
		argArea = 4 * maxArgs
		spillArea = 4 * spillSlots
	}
	var stackSlots int
	g.regAssign, stackSlots = collectRegLocals(fn, hasCall)
	g.usedSRegs = g.usedSRegs[:0]
	for _, r := range g.regAssign {
		g.usedSRegs = append(g.usedSRegs, r)
	}
	sortRegs(g.usedSRegs)
	g.spillBase = argArea
	g.localBase = argArea + spillArea + 4*len(g.usedSRegs)
	sRegBase := argArea + spillArea
	// The frame is known before the body, so the prologue comes first.
	frame := g.localBase + 4*stackSlots + 4 // + saved ra
	if frame%8 != 0 {
		frame += 4
	}
	raOff := frame - 4
	sp, ra := asm.Reg(isa.RegSP), asm.Reg(isa.RegRA)

	g.emitLabel(fn.Name)
	g.emit("addiu", sp, sp, asm.Imm(int64(-frame)))
	g.emit("sw", ra, asm.Mem(int64(raOff), isa.RegSP))
	for i, r := range g.usedSRegs {
		g.emit("sw", asm.Reg(r), asm.Mem(int64(sRegBase+4*i), isa.RegSP))
	}
	g.openScope()
	for i, prm := range fn.Params {
		lv, err := g.declareLocal(prm.Name, prm.Typ, fn.Line)
		if err != nil {
			return err
		}
		argReg := asm.Reg(isa.RegA0 + isa.Reg(i))
		switch {
		case i < 4 && lv.inReg:
			g.emit("move", asm.Reg(lv.reg), argReg)
		case i < 4:
			g.emit("sw", argReg, asm.Mem(int64(lv.off), isa.RegSP))
		case lv.inReg:
			g.emit("lw", asm.Reg(lv.reg), asm.Mem(int64(frame+4*i), isa.RegSP))
		default:
			g.emit("lw", asm.Reg(isa.RegT0), asm.Mem(int64(frame+4*i), isa.RegSP))
			g.emit("sw", asm.Reg(isa.RegT0), asm.Mem(int64(lv.off), isa.RegSP))
		}
	}
	if err := g.genBlock(fn.Body); err != nil {
		return err
	}
	g.closeScope()
	if g.nLocals != stackSlots {
		return errf(fn.Line, "internal: %s declared %d stack locals, frame holds %d", fn.Name, g.nLocals, stackSlots)
	}
	g.emitLabel(g.retLbl)
	for i, r := range g.usedSRegs {
		g.emit("lw", asm.Reg(r), asm.Mem(int64(sRegBase+4*i), isa.RegSP))
	}
	g.emit("lw", ra, asm.Mem(int64(raOff), isa.RegSP))
	g.emit("addiu", sp, sp, asm.Imm(int64(frame)))
	g.emit("jr", ra)
	return nil
}

func sortRegs(rs []isa.Reg) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
