package cc

import (
	"slices"
	"testing"
)

// TestLexOperators lexes every operator spelling on its own and checks
// that the list below covers every operator kind in token.go.
func TestLexOperators(t *testing.T) {
	ops := map[string]tokKind{
		"(": tokLParen, ")": tokRParen, "{": tokLBrace, "}": tokRBrace,
		"[": tokLBracket, "]": tokRBracket, ",": tokComma, ";": tokSemi,
		"=": tokAssign, "+=": tokPlusEq, "-=": tokMinusEq, "*=": tokStarEq,
		"/=": tokSlashEq, "%=": tokPctEq, "<<=": tokShlEq, ">>=": tokShrEq,
		"&=": tokAndEq, "|=": tokOrEq, "^=": tokXorEq,
		"+": tokPlus, "-": tokMinus, "*": tokStar, "/": tokSlash,
		"%": tokPercent, "&": tokAmp, "|": tokPipe, "^": tokCaret,
		"~": tokTilde, "!": tokBang, "<": tokLt, ">": tokGt,
		"<=": tokLe, ">=": tokGe, "==": tokEq, "!=": tokNe,
		"<<": tokShl, ">>": tokShr, "&&": tokAndAnd, "||": tokOrOr,
		"?": tokQuestion, ":": tokColon, "++": tokInc, "--": tokDec,
	}
	covered := make(map[tokKind]bool)
	for text, kind := range ops {
		covered[kind] = true
		toks, err := lexAll(text)
		if err != nil {
			t.Errorf("%q: %v", text, err)
			continue
		}
		if len(toks) != 2 || toks[0].kind != kind || toks[0].text != text || toks[1].kind != tokEOF {
			t.Errorf("%q lexes to %v, want one token of kind %d", text, toks, kind)
		}
	}
	for k := tokLParen; k <= tokDec; k++ {
		if !covered[k] {
			t.Errorf("operator kind %d has no spelling in the test table", k)
		}
	}
}

// TestLexLongestMatch checks that an operator is always the longest
// spelling that starts at the current byte.
func TestLexLongestMatch(t *testing.T) {
	cases := []struct {
		src  string
		want []tokKind
	}{
		{"a<<=b", []tokKind{tokIdent, tokShlEq, tokIdent}},
		{"a<<b", []tokKind{tokIdent, tokShl, tokIdent}},
		{"a<=b", []tokKind{tokIdent, tokLe, tokIdent}},
		{"a<b", []tokKind{tokIdent, tokLt, tokIdent}},
		{"a<<<b", []tokKind{tokIdent, tokShl, tokLt, tokIdent}},
		{"a>>=b", []tokKind{tokIdent, tokShrEq, tokIdent}},
		{"a>>b", []tokKind{tokIdent, tokShr, tokIdent}},
		{"x--y", []tokKind{tokIdent, tokDec, tokIdent}},
		{"x- -y", []tokKind{tokIdent, tokMinus, tokMinus, tokIdent}},
		{"a+++b", []tokKind{tokIdent, tokInc, tokPlus, tokIdent}},
		{"a&&b", []tokKind{tokIdent, tokAndAnd, tokIdent}},
		{"a&b", []tokKind{tokIdent, tokAmp, tokIdent}},
		{"a&=b", []tokKind{tokIdent, tokAndEq, tokIdent}},
		{"a==b", []tokKind{tokIdent, tokEq, tokIdent}},
		{"a=!b", []tokKind{tokIdent, tokAssign, tokBang, tokIdent}},
		{"a!=b", []tokKind{tokIdent, tokNe, tokIdent}},
	}
	for _, c := range cases {
		toks, err := lexAll(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		var got []tokKind
		for _, tk := range toks[:len(toks)-1] {
			got = append(got, tk.kind)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%q lexes to kinds %v, want %v", c.src, got, c.want)
		}
	}
}
