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
	if opt.TextBase == 0 {
		opt.TextBase = isa.DefaultTextBase
	}
	if opt.DataBase == 0 {
		opt.DataBase = isa.DefaultDataBase
	}
	a := &assembler{opt: opt, symbols: make(map[string]uint32)}
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}
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

// stmt is one parsed source statement.
type stmt struct {
	line   int
	labels []string
	op     string   // mnemonic or directive (with leading '.'), may be ""
	args   []string // comma-separated operand fields, pre-trimmed
	raw    string   // original text after the mnemonic (for .asciiz)
}

// parse splits source into statements.
func parse(src string) ([]stmt, error) {
	out := make([]stmt, 0, strings.Count(src, "\n")+1)
	for ln := 1; ; ln++ {
		line, rest, more := strings.Cut(src, "\n")
		s, ok, err := parseLine(ln, line)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, s)
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

// parseLine parses one source line, reporting false for a line that
// holds no statement.
func parseLine(ln int, line string) (stmt, bool, error) {
	line = strings.TrimSpace(stripComment(line))
	if line == "" {
		return stmt{}, false, nil
	}
	s := stmt{line: ln}
	// Peel leading labels.
	for {
		cand, rest, found := strings.Cut(line, ":")
		cand = strings.TrimSpace(cand)
		if !found || !isIdent(cand) {
			break
		}
		s.labels = append(s.labels, cand)
		line = strings.TrimSpace(rest)
	}
	if line == "" {
		return s, len(s.labels) > 0, nil
	}
	// Split mnemonic from operands.
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		s.op = strings.ToLower(line)
		return s, true, nil
	}
	s.op = strings.ToLower(line[:sp])
	s.raw = strings.TrimSpace(line[sp+1:])
	// Split operands on commas outside quotes and parentheses.
	depth := 0
	start := 0
	for i := 0; i < len(s.raw); i++ {
		switch s.raw[i] {
		case '"', '\'':
			i = closeQuote(s.raw, i)
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				s.args = append(s.args, strings.TrimSpace(s.raw[start:i]))
				start = i + 1
			}
		}
	}
	if start < len(s.raw) || len(s.args) > 0 {
		s.args = append(s.args, strings.TrimSpace(s.raw[start:]))
	}
	return s, true, nil
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
}

// layout is pass one: assign every label an address and size every
// statement, so pass two can resolve forward references.
func (a *assembler) layout(stmts []stmt) error {
	seg := segText
	textPC := a.opt.TextBase
	dataPC := a.opt.DataBase
	def := func(label string, addr uint32, line int) error {
		if _, dup := a.symbols[label]; dup {
			return errf(line, "duplicate label %q", label)
		}
		a.symbols[label] = addr
		return nil
	}
	for _, s := range stmts {
		addr := textPC
		if seg == segData {
			addr = dataPC
		}
		for _, l := range s.labels {
			if err := def(l, addr, s.line); err != nil {
				return err
			}
		}
		if s.op == "" {
			continue
		}
		if strings.HasPrefix(s.op, ".") {
			var err error
			seg, textPC, dataPC, err = a.sizeDirective(s, seg, textPC, dataPC)
			if err != nil {
				return err
			}
			continue
		}
		if seg != segText {
			return errf(s.line, "instruction %q in data segment", s.op)
		}
		n, err := expandSize(s)
		if err != nil {
			return err
		}
		textPC += uint32(n) * 4
	}
	return nil
}

// sizeDirective advances segment cursors for a directive in pass one.
func (a *assembler) sizeDirective(s stmt, seg int, textPC, dataPC uint32) (int, uint32, uint32, error) {
	adv := func(n uint32) {
		dataPC += n
	}
	switch s.op {
	case ".word", ".half", ".byte", ".space", ".asciiz", ".ascii":
		if seg != segData {
			return seg, 0, 0, errf(s.line, "data directive %s outside .data segment", s.op)
		}
	}
	switch s.op {
	case ".text":
		return segText, textPC, dataPC, nil
	case ".data":
		return segData, textPC, dataPC, nil
	case ".globl", ".global", ".ent", ".end", ".set", ".file":
		return seg, textPC, dataPC, nil // accepted and ignored
	case ".word":
		adv(4 * uint32(len(s.args)))
	case ".half":
		adv(2 * uint32(len(s.args)))
	case ".byte":
		adv(uint32(len(s.args)))
	case ".space":
		n, err := parseUint(s.args, s.line)
		if err != nil {
			return seg, 0, 0, err
		}
		adv(n)
	case ".align":
		n, err := parseUint(s.args, s.line)
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
		str, err := parseString(s.raw, s.line)
		if err != nil {
			return seg, 0, 0, err
		}
		n := uint32(len(str))
		if s.op == ".asciiz" {
			n++
		}
		adv(n)
	default:
		return seg, 0, 0, errf(s.line, "unknown directive %q", s.op)
	}
	return seg, textPC, dataPC, nil
}

func parseUint(args []string, line int) (uint32, error) {
	if len(args) != 1 {
		return 0, errf(line, "directive needs one numeric argument")
	}
	v, err := strconv.ParseInt(args[0], 0, 64)
	if err != nil || v < 0 {
		return 0, errf(line, "bad numeric argument %q", args[0])
	}
	return uint32(v), nil
}

func parseString(raw string, line int) (string, error) {
	raw = strings.TrimSpace(raw)
	s, err := strconv.Unquote(raw)
	if err != nil {
		return "", errf(line, "bad string literal %s", raw)
	}
	return s, nil
}

// emit is pass two: encode instructions and data with all symbols known.
func (a *assembler) emit(stmts []stmt) error {
	seg := segText
	textPC := a.opt.TextBase
	dataPC := a.opt.DataBase
	for _, s := range stmts {
		if s.op == "" {
			continue
		}
		if strings.HasPrefix(s.op, ".") {
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
				return errf(s.line, "%v", err)
			}
			a.text = append(a.text, w)
			textPC += 4
		}
	}
	return nil
}

func (a *assembler) emitDirective(s stmt, seg int, textPC, dataPC uint32) (int, uint32, uint32, error) {
	emitBytes := func(bs ...byte) {
		a.data = append(a.data, bs...)
		dataPC += uint32(len(bs))
	}
	switch s.op {
	case ".text":
		return segText, textPC, dataPC, nil
	case ".data":
		return segData, textPC, dataPC, nil
	case ".globl", ".global", ".ent", ".end", ".set", ".file":
		return seg, textPC, dataPC, nil
	case ".word":
		for _, arg := range s.args {
			v, err := a.value(arg, s.line)
			if err != nil {
				return seg, 0, 0, err
			}
			emitBytes(byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	case ".half":
		for _, arg := range s.args {
			v, err := a.value(arg, s.line)
			if err != nil {
				return seg, 0, 0, err
			}
			emitBytes(byte(v), byte(v>>8))
		}
	case ".byte":
		for _, arg := range s.args {
			v, err := a.value(arg, s.line)
			if err != nil {
				return seg, 0, 0, err
			}
			emitBytes(byte(v))
		}
	case ".space":
		n, _ := parseUint(s.args, s.line)
		emitBytes(make([]byte, n)...)
	case ".align":
		n, _ := parseUint(s.args, s.line)
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
		str, err := parseString(s.raw, s.line)
		if err != nil {
			return seg, 0, 0, err
		}
		emitBytes([]byte(str)...)
		if s.op == ".asciiz" {
			emitBytes(0)
		}
	}
	return seg, textPC, dataPC, nil
}

// value evaluates a .word/.half/.byte operand: an integer literal, a
// label, a character constant, or label+offset.
func (a *assembler) value(arg string, line int) (int64, error) {
	arg = strings.TrimSpace(arg)
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
