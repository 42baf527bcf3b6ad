package asm

import (
	"strconv"

	"asbr/internal/isa"
)

// Stmt is one assembly statement: the label it defines, a mnemonic or
// a directive (with its leading '.'), and the operand fields. A label
// alone has no Op. Assemble parses text into statements; a code
// generator builds them directly and hands them to AssembleStmts.
type Stmt struct {
	Line  int    // 1-based source line, the one errors report
	Label string // label defined at this statement, or ""
	Op    string // mnemonic or directive, or "" for a label alone
	Args  []Operand
}

// OperandKind says how an Operand holds its field.
type OperandKind uint8

// The operand kinds. A parsed statement holds every field as KindText;
// a code generator uses the typed kinds, which the assembler reads
// without parsing.
const (
	KindText OperandKind = iota // the field as written
	KindReg                     // a register
	KindImm                     // an integer
	KindMem                     // an off(base) memory operand
	KindSym                     // a symbol
)

// Operand is one operand field of a statement. A typed operand
// assembles exactly as its String form would.
type Operand struct {
	Kind OperandKind
	Reg  isa.Reg // KindReg: the register; KindMem: the base
	Imm  int64   // KindImm: the value; KindMem: the offset
	Text string  // KindText: the field; KindSym: the symbol name
}

// Reg returns a register operand.
func Reg(r isa.Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// Imm returns an integer operand.
func Imm(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// Mem returns the memory operand off(base).
func Mem(off int64, base isa.Reg) Operand { return Operand{Kind: KindMem, Reg: base, Imm: off} }

// Sym returns a symbol operand: a label or data name, which must be
// an identifier.
func Sym(name string) Operand { return Operand{Kind: KindSym, Text: name} }

// String renders the operand as assembly text.
func (o Operand) String() string {
	switch o.Kind {
	case KindReg:
		return o.Reg.String()
	case KindImm, KindMem:
		return string(o.appendTo(nil))
	}
	return o.Text
}

func (o Operand) appendTo(b []byte) []byte {
	switch o.Kind {
	case KindReg:
		return append(b, o.Reg.String()...)
	case KindImm:
		return strconv.AppendInt(b, o.Imm, 10)
	case KindMem:
		b = strconv.AppendInt(b, o.Imm, 10)
		b = append(b, '(')
		b = append(b, o.Reg.String()...)
		return append(b, ')')
	}
	return append(b, o.Text...)
}

// appendArgs renders the operand fields, comma separated.
func appendArgs(b []byte, args []Operand) []byte {
	for i, a := range args {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.appendTo(b)
	}
	return b
}

// String renders the statement as one line of assembly text.
func (s Stmt) String() string { return string(s.appendTo(nil)) }

func (s *Stmt) appendTo(b []byte) []byte {
	if s.Label != "" {
		b = append(b, s.Label...)
		b = append(b, ':')
	}
	if s.Op == "" {
		return b
	}
	b = append(b, '\t')
	b = append(b, s.Op...)
	if len(s.Args) > 0 {
		b = append(b, ' ')
		b = appendArgs(b, s.Args)
	}
	return b
}

// Format renders statements as assembly text, one line each, with
// line i+1 holding stmts[i]. Assemble reads it back to the program
// AssembleStmts builds from the same statements.
func Format(stmts []Stmt) string {
	b := make([]byte, 0, 16*len(stmts))
	for i := range stmts {
		b = stmts[i].appendTo(b)
		b = append(b, '\n')
	}
	return string(b)
}
