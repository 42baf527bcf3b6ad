package cc

import (
	"strconv"
	"strings"
)

// lexer turns MiniC source into tokens. It handles //- and /* */-style
// comments and decimal/hex/char literals.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) at(i int) byte {
	if l.pos+i >= len(l.src) {
		return 0
	}
	return l.src[l.pos+i]
}

func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.at(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.at(1) == '*':
			start := l.line
			l.pos += 2
			for {
				if l.pos >= len(l.src) {
					return errf(start, "unterminated comment")
				}
				if l.src[l.pos] == '\n' {
					l.line++
				}
				if l.src[l.pos] == '*' && l.at(1) == '/' {
					l.pos += 2
					break
				}
				l.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	line := l.line
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && (isIdentStart(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if k, ok := keywords[text]; ok {
			return token{kind: k, text: text, line: line}, nil
		}
		return token{kind: tokIdent, text: text, line: line}, nil
	case isDigit(c):
		start := l.pos
		if c == '0' && (l.at(1) == 'x' || l.at(1) == 'X') {
			l.pos += 2
			for l.pos < len(l.src) && isHex(l.src[l.pos]) {
				l.pos++
			}
		} else {
			for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				l.pos++
			}
		}
		text := l.src[start:l.pos]
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return token{}, errf(line, "bad number %q", text)
		}
		return token{kind: tokNumber, text: text, val: v, line: line}, nil
	case c == '\'':
		// The literal ends at the first quote no backslash escapes.
		end := l.pos + 1
		for end < len(l.src) && l.src[end] != '\'' {
			if l.src[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(l.src) {
			return token{}, errf(line, "unterminated char literal")
		}
		lit := l.src[l.pos : end+1]
		s, err := strconv.Unquote(lit)
		if err != nil || len(s) != 1 {
			return token{}, errf(line, "bad char literal %s", lit)
		}
		l.pos = end + 1
		return token{kind: tokChar, text: lit, val: int64(s[0]), line: line}, nil
	}
	for _, op := range operatorsByByte[c] {
		if strings.HasPrefix(l.src[l.pos:], op.text) {
			l.pos += len(op.text)
			return token{kind: op.kind, text: op.text, line: line}, nil
		}
	}
	return token{}, errf(line, "unexpected character %q", string(c))
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// bytesPerToken is a lower bound on the source bytes per token of
// typical MiniC (generated programs have about 2, the benchmarks 3.3 to
// 3.8), so lexAll's first allocation usually holds every token.
const bytesPerToken = 2

// lexAll tokenizes the whole source.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	out := make([]token, 0, len(src)/bytesPerToken+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
