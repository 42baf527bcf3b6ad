package cc

import (
	"fmt"
	"strings"

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
	text    []string
	data    []string
	labelN  int

	// Per-function state.
	fn        *FuncDecl
	scopes    []map[string]localVar
	nLocals   int
	localBase int
	spillBase int
	body      []string
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
	f, err := Parse(src)
	if err != nil {
		return "", err
	}
	return Generate(f)
}

// CompileToProgram compiles and assembles MiniC source.
func CompileToProgram(src string) (*isa.Program, error) {
	text, err := Compile(src)
	if err != nil {
		return nil, err
	}
	p, err := asm.Assemble(text)
	if err != nil {
		return nil, fmt.Errorf("cc: internal: generated assembly rejected: %v", err)
	}
	return p, nil
}

// Generate emits assembly for a parsed file.
func Generate(f *File) (string, error) {
	g := &gen{
		globals: make(map[string]*GlobalDecl),
		funcs:   make(map[string]*funcSig),
	}
	for _, gd := range f.Globals {
		if _, dup := g.globals[gd.Name]; dup {
			return "", errf(gd.Line, "duplicate global %q", gd.Name)
		}
		g.globals[gd.Name] = gd
		g.emitGlobal(gd)
	}
	for _, fn := range f.Funcs {
		if _, dup := g.funcs[fn.Name]; dup {
			return "", errf(fn.Line, "duplicate function %q", fn.Name)
		}
		if _, shadow := g.globals[fn.Name]; shadow {
			return "", errf(fn.Line, "function %q collides with a global", fn.Name)
		}
		g.funcs[fn.Name] = &funcSig{ret: fn.Ret, params: fn.Params, defined: true}
	}
	for _, fn := range f.Funcs {
		if err := g.genFunc(fn); err != nil {
			return "", err
		}
	}
	g.text = Peephole(g.text)
	var b strings.Builder
	b.WriteString("\t.text\n")
	for _, l := range g.text {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if len(g.data) > 0 {
		b.WriteString("\t.data\n")
		for _, l := range g.data {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String(), nil
}

func (g *gen) emitGlobal(gd *GlobalDecl) {
	if !gd.IsArr {
		v := int64(0)
		if gd.HasInit {
			v = gd.Init[0]
		}
		g.data = append(g.data, fmt.Sprintf("%s:\t.word %d", gd.Name, int32(v)))
		return
	}
	if len(gd.Init) == 0 {
		g.data = append(g.data, fmt.Sprintf("%s:\t.space %d", gd.Name, gd.Size*4))
		return
	}
	parts := make([]string, 0, len(gd.Init))
	for _, v := range gd.Init {
		parts = append(parts, fmt.Sprintf("%d", int32(v)))
	}
	g.data = append(g.data, fmt.Sprintf("%s:\t.word %s", gd.Name, strings.Join(parts, ", ")))
	if rest := gd.Size - len(gd.Init); rest > 0 {
		g.data = append(g.data, fmt.Sprintf("\t.space %d", rest*4))
	}
}

func (g *gen) label() string {
	g.labelN++
	return fmt.Sprintf(".L%d", g.labelN)
}

func (g *gen) emit(format string, args ...interface{}) {
	g.body = append(g.body, "\t"+fmt.Sprintf(format, args...))
}

func (g *gen) emitLabel(l string) {
	g.body = append(g.body, l+":")
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
	g.body = nil
	g.breakLbl, g.contLbl = nil, nil
	g.retLbl = fmt.Sprintf(".Lret_%s", fn.Name)

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
	g.regAssign = collectRegLocals(fn, hasCall)
	g.usedSRegs = g.usedSRegs[:0]
	for _, r := range g.regAssign {
		g.usedSRegs = append(g.usedSRegs, r)
	}
	sortRegs(g.usedSRegs)
	g.spillBase = argArea
	g.localBase = argArea + spillArea + 4*len(g.usedSRegs)
	sRegBase := argArea + spillArea

	g.openScope()
	var paramSlots []localVar
	for _, prm := range fn.Params {
		lv, err := g.declareLocal(prm.Name, prm.Typ, fn.Line)
		if err != nil {
			return err
		}
		paramSlots = append(paramSlots, lv)
	}
	if err := g.genBlock(fn.Body); err != nil {
		return err
	}
	g.closeScope()

	frame := g.localBase + 4*g.nLocals + 4 // + saved ra
	if frame%8 != 0 {
		frame += 4
	}
	raOff := frame - 4

	var out []string
	out = append(out, fn.Name+":")
	out = append(out, fmt.Sprintf("\taddiu sp, sp, -%d", frame))
	out = append(out, fmt.Sprintf("\tsw ra, %d(sp)", raOff))
	for i, r := range g.usedSRegs {
		out = append(out, fmt.Sprintf("\tsw %s, %d(sp)", r, sRegBase+4*i))
	}
	for i, lv := range paramSlots {
		switch {
		case i < 4 && lv.inReg:
			out = append(out, fmt.Sprintf("\tmove %s, a%d", lv.reg, i))
		case i < 4:
			out = append(out, fmt.Sprintf("\tsw a%d, %d(sp)", i, lv.off))
		case lv.inReg:
			out = append(out, fmt.Sprintf("\tlw %s, %d(sp)", lv.reg, frame+4*i))
		default:
			out = append(out, fmt.Sprintf("\tlw t0, %d(sp)", frame+4*i))
			out = append(out, fmt.Sprintf("\tsw t0, %d(sp)", lv.off))
		}
	}
	out = append(out, g.body...)
	out = append(out, g.retLbl+":")
	for i, r := range g.usedSRegs {
		out = append(out, fmt.Sprintf("\tlw %s, %d(sp)", r, sRegBase+4*i))
	}
	out = append(out, fmt.Sprintf("\tlw ra, %d(sp)", raOff))
	out = append(out, fmt.Sprintf("\taddiu sp, sp, %d", frame))
	out = append(out, "\tjr ra")
	g.text = append(g.text, out...)
	return nil
}

func sortRegs(rs []isa.Reg) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
