// Package asm implements a two-pass assembler and a disassembler for
// the project's MIPS-like ISA (package isa).
//
// The accepted syntax is the familiar MIPS assembly dialect:
//
//	        .text
//	main:   addiu sp, sp, -32
//	        la    a0, buf          # pseudo: lui+ori
//	        li    t0, 100000       # pseudo: 1 or 2 words
//	loop:   lw    t1, 0(a0)
//	        beqz  t1, done         # pseudo: beq t1, zero, done
//	        addiu a0, a0, 4
//	        j     loop
//	done:   jr    ra
//	        .data
//	buf:    .word 1, 2, 3, 0
//	msg:    .asciiz "hi"
//	tmp:    .space 64
//
// Comments start with '#' or ';' outside quoted strings and character
// constants. Labels may appear alone on a line. Pseudo-instructions are
// expanded deterministically so that pass one can lay out addresses
// exactly.
//
// Assemble parses the text into statements (Stmt) and assembles those.
// A code generator builds the statements itself and calls
// AssembleStmts, which skips printing and parsing; Format prints them
// as the text Assemble turns into the same program.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"asbr/internal/isa"
)

// Options configures segment placement for Assemble.
type Options struct {
	TextBase uint32 // defaults to isa.DefaultTextBase
	DataBase uint32 // defaults to isa.DefaultDataBase
}

// Error describes an assembly failure with its source line.
type Error struct {
	Line int    // 1-based source line
	Msg  string // description
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble assembles MIPS-dialect source into a loadable program using
// default segment placement. The entry point is the "main" symbol if
// defined, otherwise the start of the text segment.
func Assemble(src string) (*isa.Program, error) {
	return AssembleWith(src, Options{})
}

// AssembleWith is Assemble with explicit options.
func AssembleWith(src string, opt Options) (*isa.Program, error) {
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}
	return assemble(stmts, opt)
}

// AssembleStmts assembles statements into a loadable program using
// default segment placement, as Assemble does with their Format text.
func AssembleStmts(stmts []Stmt) (*isa.Program, error) {
	return assemble(stmts, Options{})
}

// assemble is the assembler core: both passes over the statements.
func assemble(stmts []Stmt, opt Options) (*isa.Program, error) {
	if opt.TextBase == 0 {
		opt.TextBase = isa.DefaultTextBase
	}
	if opt.DataBase == 0 {
		opt.DataBase = isa.DefaultDataBase
	}
	a := &assembler{opt: opt, symbols: make(map[string]uint32)}
	if err := a.layout(stmts); err != nil {
		return nil, err
	}
	if err := a.emit(stmts); err != nil {
		return nil, err
	}
	p := &isa.Program{
		TextBase: opt.TextBase,
		Text:     a.text,
		DataBase: opt.DataBase,
		Data:     a.data,
		Symbols:  a.symbols,
		Entry:    opt.TextBase,
	}
	if main, ok := a.symbols["main"]; ok {
		p.Entry = main
	}
	return p, nil
}

// segment identifiers.
const (
	segText = iota
	segData
)

// parse splits source into statements. A line that defines several
// labels becomes one label-only statement per extra label.
func parse(src string) ([]Stmt, error) {
	out := make([]Stmt, 0, strings.Count(src, "\n")+1)
	for ln := 1; ; ln++ {
		line, rest, more := strings.Cut(src, "\n")
		var err error
		if out, err = parseLine(out, ln, line); err != nil {
			return nil, err
		}
		if !more {
			return out, nil
		}
		src = rest
	}
}

// closeQuote returns the index of the quote that closes the string or
// character constant opening at s[i], or len(s) if there is none. A
// backslash escapes the byte after it.
func closeQuote(s string, i int) int {
	q := s[i]
	for i++; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case q:
			return i
		}
	}
	return len(s)
}

// stripComment cuts line at the first '#' or ';' outside a quoted
// string or character constant.
func stripComment(line string) string {
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"', '\'':
			i = closeQuote(line, i)
		case '#', ';':
			return line[:i]
		}
	}
	return line
}

// parseLine appends the statements of one source line to out.
func parseLine(out []Stmt, ln int, line string) ([]Stmt, error) {
	line = strings.TrimSpace(stripComment(line))
	if line == "" {
		return out, nil
	}
	s := Stmt{Line: ln}
	// Peel leading labels.
	for {
		cand, rest, found := strings.Cut(line, ":")
		cand = strings.TrimSpace(cand)
		if !found || !isIdent(cand) {
			break
		}
		if s.Label != "" {
			out = append(out, s)
		}
		s.Label = cand
		line = strings.TrimSpace(rest)
	}
	if line == "" {
		if s.Label != "" {
			out = append(out, s)
		}
		return out, nil
	}
	// Split mnemonic from operands.
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		s.Op = strings.ToLower(line)
		return append(out, s), nil
	}
	s.Op = strings.ToLower(line[:sp])
	raw := strings.TrimSpace(line[sp+1:])
	if s.Op == ".ascii" || s.Op == ".asciiz" {
		// A string keeps its commas and parentheses.
		s.Args = []Operand{{Text: raw}}
		return append(out, s), nil
	}
	// Split operands on commas outside quotes and parentheses.
	depth := 0
	start := 0
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '"', '\'':
			i = closeQuote(raw, i)
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				s.Args = append(s.Args, Operand{Text: strings.TrimSpace(raw[start:i])})
				start = i + 1
			}
		}
	}
	if start < len(raw) || len(s.Args) > 0 {
		s.Args = append(s.Args, Operand{Text: strings.TrimSpace(raw[start:])})
	}
	return append(out, s), nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == '.' || r == '$' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && !(i > 0 && r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

type assembler struct {
	opt     Options
	symbols map[string]uint32
	text    []uint32
	data    []byte
	buf     []isa.Inst // one statement's expansion
}

// layout is pass one: assign every label an address and size every
// statement, so pass two can resolve forward references.
func (a *assembler) layout(stmts []Stmt) error {
	seg := segText
	textPC := a.opt.TextBase
	dataPC := a.opt.DataBase
	for i := range stmts {
		s := &stmts[i]
		if s.Label != "" {
			addr := textPC
			if seg == segData {
				addr = dataPC
			}
			if _, dup := a.symbols[s.Label]; dup {
				return errf(s.Line, "duplicate label %q", s.Label)
			}
			a.symbols[s.Label] = addr
		}
		if s.Op == "" {
			continue
		}
		if strings.HasPrefix(s.Op, ".") {
			var err error
			seg, textPC, dataPC, err = a.sizeDirective(s, seg, textPC, dataPC)
			if err != nil {
				return err
			}
			continue
		}
		if seg != segText {
			return errf(s.Line, "instruction %q in data segment", s.Op)
		}
		n, err := expandSize(s)
		if err != nil {
			return err
		}
		textPC += uint32(n) * 4
	}
	// Size the segments for pass two, unless a cursor wrapped.
	if textPC > a.opt.TextBase {
		a.text = make([]uint32, 0, (textPC-a.opt.TextBase)/4)
	}
	if dataPC > a.opt.DataBase {
		a.data = make([]byte, 0, dataPC-a.opt.DataBase)
	}
	return nil
}

// sizeDirective advances segment cursors for a directive in pass one.
func (a *assembler) sizeDirective(s *Stmt, seg int, textPC, dataPC uint32) (int, uint32, uint32, error) {
	adv := func(n uint32) {
		dataPC += n
	}
	switch s.Op {
	case ".word", ".half", ".byte", ".space", ".asciiz", ".ascii":
		if seg != segData {
			return seg, 0, 0, errf(s.Line, "data directive %s outside .data segment", s.Op)
		}
	}
	switch s.Op {
	case ".text":
		return segText, textPC, dataPC, nil
	case ".data":
		return segData, textPC, dataPC, nil
	case ".globl", ".global", ".ent", ".end", ".set", ".file":
		return seg, textPC, dataPC, nil // accepted and ignored
	case ".word":
		adv(4 * uint32(len(s.Args)))
	case ".half":
		adv(2 * uint32(len(s.Args)))
	case ".byte":
		adv(uint32(len(s.Args)))
	case ".space":
		n, err := parseUint(s.Args, s.Line)
		if err != nil {
			return seg, 0, 0, err
		}
		adv(n)
	case ".align":
		n, err := parseUint(s.Args, s.Line)
		if err != nil {
			return seg, 0, 0, err
		}
		mask := uint32(1)<<n - 1
		if seg == segText {
			textPC = (textPC + mask) &^ mask
		} else {
			dataPC = (dataPC + mask) &^ mask
		}
	case ".asciiz", ".ascii":
		str, err := parseString(s)
		if err != nil {
			return seg, 0, 0, err
		}
		n := uint32(len(str))
		if s.Op == ".asciiz" {
			n++
		}
		adv(n)
	default:
		return seg, 0, 0, errf(s.Line, "unknown directive %q", s.Op)
	}
	return seg, textPC, dataPC, nil
}

func parseUint(args []Operand, line int) (uint32, error) {
	if len(args) != 1 {
		return 0, errf(line, "directive needs one numeric argument")
	}
	if o := args[0]; o.Kind == KindImm && o.Imm >= 0 {
		return uint32(o.Imm), nil
	}
	arg := args[0].String()
	v, err := strconv.ParseInt(arg, 0, 64)
	if err != nil || v < 0 {
		return 0, errf(line, "bad numeric argument %q", arg)
	}
	return uint32(v), nil
}

// parseString reads the string literal of an .ascii or .asciiz
// statement: its operand text, unsplit.
func parseString(s *Stmt) (string, error) {
	raw := strings.TrimSpace(string(appendArgs(nil, s.Args)))
	str, err := strconv.Unquote(raw)
	if err != nil {
		return "", errf(s.Line, "bad string literal %s", raw)
	}
	return str, nil
}

// emit is pass two: encode instructions and data with all symbols known.
func (a *assembler) emit(stmts []Stmt) error {
	seg := segText
	textPC := a.opt.TextBase
	dataPC := a.opt.DataBase
	for i := range stmts {
		s := &stmts[i]
		if s.Op == "" {
			continue
		}
		if strings.HasPrefix(s.Op, ".") {
			var err error
			seg, textPC, dataPC, err = a.emitDirective(s, seg, textPC, dataPC)
			if err != nil {
				return err
			}
			continue
		}
		insts, err := a.expand(s, textPC)
		if err != nil {
			return err
		}
		for _, in := range insts {
			w, err := isa.Encode(in)
			if err != nil {
				return errf(s.Line, "%v", err)
			}
			a.text = append(a.text, w)
			textPC += 4
		}
	}
	return nil
}

func (a *assembler) emitDirective(s *Stmt, seg int, textPC, dataPC uint32) (int, uint32, uint32, error) {
	emitBytes := func(bs ...byte) {
		a.data = append(a.data, bs...)
		dataPC += uint32(len(bs))
	}
	switch s.Op {
	case ".text":
		return segText, textPC, dataPC, nil
	case ".data":
		return segData, textPC, dataPC, nil
	case ".globl", ".global", ".ent", ".end", ".set", ".file":
		return seg, textPC, dataPC, nil
	case ".word":
		for _, arg := range s.Args {
			v, err := a.value(arg, s.Line)
			if err != nil {
				return seg, 0, 0, err
			}
			emitBytes(byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	case ".half":
		for _, arg := range s.Args {
			v, err := a.value(arg, s.Line)
			if err != nil {
				return seg, 0, 0, err
			}
			emitBytes(byte(v), byte(v>>8))
		}
	case ".byte":
		for _, arg := range s.Args {
			v, err := a.value(arg, s.Line)
			if err != nil {
				return seg, 0, 0, err
			}
			emitBytes(byte(v))
		}
	case ".space":
		n, _ := parseUint(s.Args, s.Line)
		emitBytes(make([]byte, n)...)
	case ".align":
		n, _ := parseUint(s.Args, s.Line)
		mask := uint32(1)<<n - 1
		if seg == segData {
			for dataPC&mask != 0 {
				emitBytes(0)
			}
		} else {
			for textPC&mask != 0 {
				a.text = append(a.text, isa.NopWord)
				textPC += 4
			}
		}
	case ".asciiz", ".ascii":
		str, err := parseString(s)
		if err != nil {
			return seg, 0, 0, err
		}
		emitBytes([]byte(str)...)
		if s.Op == ".asciiz" {
			emitBytes(0)
		}
	}
	return seg, textPC, dataPC, nil
}

// value evaluates a .word/.half/.byte operand: an integer literal, a
// label, a character constant, or label+offset.
func (a *assembler) value(o Operand, line int) (int64, error) {
	switch o.Kind {
	case KindImm:
		return o.Imm, nil
	case KindSym:
		if addr, ok := a.symbols[o.Text]; ok {
			return int64(addr), nil
		}
		return 0, errf(line, "undefined symbol %q", o.Text)
	}
	arg := strings.TrimSpace(o.String())
	if arg == "" {
		return 0, errf(line, "missing operand")
	}
	if len(arg) >= 3 && arg[0] == '\'' {
		s, err := strconv.Unquote(arg)
		if err != nil || len(s) != 1 {
			return 0, errf(line, "bad char constant %s", arg)
		}
		return int64(s[0]), nil
	}
	if v, err := strconv.ParseInt(arg, 0, 64); err == nil {
		return v, nil
	}
	base := arg
	var off int64
	if i := strings.IndexAny(arg[1:], "+-"); i >= 0 {
		i++
		v, err := strconv.ParseInt(arg[i:], 0, 64)
		if err != nil {
			return 0, errf(line, "bad offset in %q", arg)
		}
		base, off = strings.TrimSpace(arg[:i]), v
	}
	if addr, ok := a.symbols[base]; ok {
		return int64(addr) + off, nil
	}
	return 0, errf(line, "undefined symbol %q", base)
}
