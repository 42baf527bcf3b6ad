// Package cc implements MiniC, a small C-subset compiler targeting the
// project's MIPS-like ISA. It stands in for the paper's gcc toolchain:
// the MediaBench workloads (ADPCM, G.721) are written in MiniC,
// compiled to assembly, and assembled by package asm.
//
// The language: 32-bit int scalars, global int arrays, int pointers,
// functions, if/else, while, do-while, for, break/continue/return, and
// full C expression syntax (including ?:, short-circuit && and ||,
// shifts, and pointer/array indexing). Declarations may appear
// anywhere in a block. There are no structs, no floating point, and no
// preprocessor — exactly enough C to express the paper's control-
// dominated embedded kernels.
//
// The backend is deliberately simple (expression-stack code with
// stack-resident locals), matching the flavor of embedded compilers of
// the paper's era; the ASBR-oriented instruction scheduling pass of
// paper §5.1 lives in package sched and runs on assembled programs.
package cc

import "fmt"

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokChar

	// Punctuation and operators.
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // {
	tokRBrace   // }
	tokLBracket // [
	tokRBracket // ]
	tokComma
	tokSemi
	tokAssign  // =
	tokPlusEq  // +=
	tokMinusEq // -=
	tokStarEq  // *=
	tokSlashEq // /=
	tokPctEq   // %=
	tokShlEq   // <<=
	tokShrEq   // >>=
	tokAndEq   // &=
	tokOrEq    // |=
	tokXorEq   // ^=
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokAmp
	tokPipe
	tokCaret
	tokTilde
	tokBang
	tokLt
	tokGt
	tokLe
	tokGe
	tokEq
	tokNe
	tokShl
	tokShr
	tokAndAnd
	tokOrOr
	tokQuestion
	tokColon
	tokInc // ++
	tokDec // --

	// Keywords.
	tokInt
	tokVoid
	tokIf
	tokElse
	tokWhile
	tokDo
	tokFor
	tokReturn
	tokBreak
	tokContinue
)

var keywords = map[string]tokKind{
	"int": tokInt, "void": tokVoid, "if": tokIf, "else": tokElse,
	"while": tokWhile, "do": tokDo, "for": tokFor, "return": tokReturn,
	"break": tokBreak, "continue": tokContinue,
}

// operator is the spelling of one operator or punctuation token.
type operator struct {
	text string
	kind tokKind
}

// operators lists every operator and punctuation token, longest
// spellings first.
var operators = [...]operator{
	{"<<=", tokShlEq}, {">>=", tokShrEq},

	{"==", tokEq}, {"!=", tokNe}, {"<=", tokLe}, {">=", tokGe},
	{"<<", tokShl}, {">>", tokShr}, {"&&", tokAndAnd}, {"||", tokOrOr},
	{"+=", tokPlusEq}, {"-=", tokMinusEq}, {"*=", tokStarEq}, {"/=", tokSlashEq},
	{"%=", tokPctEq}, {"&=", tokAndEq}, {"|=", tokOrEq}, {"^=", tokXorEq},
	{"++", tokInc}, {"--", tokDec},

	{"(", tokLParen}, {")", tokRParen}, {"{", tokLBrace}, {"}", tokRBrace},
	{"[", tokLBracket}, {"]", tokRBracket}, {",", tokComma}, {";", tokSemi},
	{"=", tokAssign}, {"+", tokPlus}, {"-", tokMinus}, {"*", tokStar},
	{"/", tokSlash}, {"%", tokPercent}, {"&", tokAmp}, {"|", tokPipe},
	{"^", tokCaret}, {"~", tokTilde}, {"!", tokBang}, {"<", tokLt}, {">", tokGt},
	{"?", tokQuestion}, {":", tokColon},
}

// operatorsByByte indexes operators by their first byte, keeping the
// longest-first order, so the first spelling that matches is the
// longest match.
var operatorsByByte = func() (t [256][]operator) {
	for _, op := range operators {
		t[op.text[0]] = append(t[op.text[0]], op)
	}
	return t
}()

// token is one lexed token.
type token struct {
	kind tokKind
	text string
	val  int64 // for tokNumber/tokChar
	line int
}

// String renders the token for error messages.
func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "EOF"
	case tokIdent, tokNumber:
		return t.text
	default:
		return t.text
	}
}

// Error is a compilation error with its source line.
type Error struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("cc: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...interface{}) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}
