package cc

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// Parse parses a MiniC translation unit.
func Parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{tokens: len(toks)}
	for p.peek().kind != tokEOF {
		if err := p.parseTopLevel(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, errf(t.line, "expected %s, got %q", what, t.text)
	}
	return t, nil
}

func (p *parser) accept(k tokKind) bool {
	if p.peek().kind == k {
		p.pos++
		return true
	}
	return false
}

// parseTopLevel parses one global declaration or function definition.
func (p *parser) parseTopLevel(f *File) error {
	t := p.peek()
	var ret Type
	switch t.kind {
	case tokInt:
		p.next()
		ret = TypeInt
	case tokVoid:
		p.next()
		ret = TypeVoid
	default:
		return errf(t.line, "expected declaration, got %q", t.text)
	}
	isPtr := p.accept(tokStar)
	name, err := p.expect(tokIdent, "identifier")
	if err != nil {
		return err
	}
	if p.peek().kind == tokLParen {
		fn, err := p.parseFunc(ret, isPtr, name)
		if err != nil {
			return err
		}
		f.Funcs = append(f.Funcs, fn)
		return nil
	}
	if ret == TypeVoid || isPtr {
		return errf(name.line, "globals must be plain int scalars or arrays")
	}
	for {
		g, err := p.parseGlobalRest(name)
		if err != nil {
			return err
		}
		f.Globals = append(f.Globals, g)
		if p.accept(tokComma) {
			name, err = p.expect(tokIdent, "identifier")
			if err != nil {
				return err
			}
			continue
		}
		_, err = p.expect(tokSemi, "';'")
		return err
	}
}

// parseGlobalRest parses the remainder of one global declarator after
// its name: optional [size], optional initializer.
func (p *parser) parseGlobalRest(name token) (*GlobalDecl, error) {
	g := &GlobalDecl{Name: name.text, Line: name.line}
	if p.accept(tokLBracket) {
		g.IsArr = true
		if p.peek().kind != tokRBracket {
			sz, err := p.constExpr()
			if err != nil {
				return nil, err
			}
			if sz <= 0 {
				return nil, errf(name.line, "array %q has non-positive size %d", g.Name, sz)
			}
			g.Size = int(sz)
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
	}
	if p.accept(tokAssign) {
		g.HasInit = true
		if g.IsArr {
			if _, err := p.expect(tokLBrace, "'{'"); err != nil {
				return nil, err
			}
			for p.peek().kind != tokRBrace {
				v, err := p.constExpr()
				if err != nil {
					return nil, err
				}
				g.Init = append(g.Init, v)
				if !p.accept(tokComma) {
					break
				}
			}
			if _, err := p.expect(tokRBrace, "'}'"); err != nil {
				return nil, err
			}
			if g.Size == 0 {
				g.Size = len(g.Init)
			}
			if len(g.Init) > g.Size {
				return nil, errf(name.line, "array %q: %d initializers exceed size %d", g.Name, len(g.Init), g.Size)
			}
		} else {
			v, err := p.constExpr()
			if err != nil {
				return nil, err
			}
			g.Init = []int64{v}
		}
	}
	if g.IsArr && g.Size == 0 {
		return nil, errf(name.line, "array %q needs a size or initializer", g.Name)
	}
	return g, nil
}

// constExpr parses and folds a constant expression (used by array
// sizes and global initializers).
func (p *parser) constExpr() (int64, error) {
	e, err := p.parseTernary()
	if err != nil {
		return 0, err
	}
	v, ok := foldConst(e)
	if !ok {
		return 0, errf(exprLine(e), "constant expression required")
	}
	return v, nil
}

// parseFunc parses a function definition after `ret [*] name`.
func (p *parser) parseFunc(ret Type, retPtr bool, name token) (*FuncDecl, error) {
	if retPtr {
		ret = TypePtr
	}
	fn := &FuncDecl{Name: name.text, Ret: ret, Line: name.line}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	if !p.accept(tokRParen) {
		if p.peek().kind == tokVoid && p.peek2().kind == tokRParen {
			p.next()
			p.next()
		} else {
			for {
				if _, err := p.expect(tokInt, "'int'"); err != nil {
					return nil, err
				}
				typ := TypeInt
				if p.accept(tokStar) {
					typ = TypePtr
				}
				id, err := p.expect(tokIdent, "parameter name")
				if err != nil {
					return nil, err
				}
				fn.Params = append(fn.Params, Param{Name: id.text, Typ: typ})
				if !p.accept(tokComma) {
					break
				}
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	b := &Block{}
	for p.peek().kind != tokRBrace {
		if p.peek().kind == tokEOF {
			return nil, errf(p.peek().line, "unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // consume }
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch t.kind {
	case tokLBrace:
		return p.parseBlock()
	case tokInt:
		s, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tokSemi, "';'")
		return s, err
	case tokIf:
		p.next()
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: then, Line: t.line}
		if p.accept(tokElse) {
			st.Else, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	case tokWhile:
		p.next()
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.line}, nil
	case tokDo:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokWhile, "'while'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Body: body, Cond: cond, Line: t.line}, nil
	case tokFor:
		p.next()
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		st := &ForStmt{Line: t.line}
		if p.peek().kind != tokSemi {
			if p.peek().kind == tokInt {
				d, err := p.parseDecl()
				if err != nil {
					return nil, err
				}
				st.Init = d
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Init = &ExprStmt{X: e, Line: t.line}
			}
		}
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return nil, err
		}
		if p.peek().kind != tokSemi {
			c, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Cond = c
		}
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return nil, err
		}
		if p.peek().kind != tokRParen {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Post = e
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	case tokReturn:
		p.next()
		st := &ReturnStmt{Line: t.line}
		if p.peek().kind != tokSemi {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.X = e
		}
		_, err := p.expect(tokSemi, "';'")
		return st, err
	case tokBreak:
		p.next()
		_, err := p.expect(tokSemi, "';'")
		return &BreakStmt{Line: t.line}, err
	case tokContinue:
		p.next()
		_, err := p.expect(tokSemi, "';'")
		return &ContinueStmt{Line: t.line}, err
	case tokSemi:
		p.next()
		return &Block{}, nil // empty statement
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, "';'"); err != nil {
			return nil, err
		}
		return &ExprStmt{X: e, Line: t.line}, nil
	}
}

// parseDecl parses `int x`, `int x = e`, or `int *p [= e]` (without
// the trailing semicolon, so for-init can reuse it).
func (p *parser) parseDecl() (Stmt, error) {
	t, err := p.expect(tokInt, "'int'")
	if err != nil {
		return nil, err
	}
	typ := TypeInt
	if p.accept(tokStar) {
		typ = TypePtr
	}
	id, err := p.expect(tokIdent, "identifier")
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Name: id.text, Typ: typ, Line: t.line}
	if p.accept(tokAssign) {
		d.Init, err = p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Expression grammar.

func (p *parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var assignOps = map[tokKind]bool{
	tokAssign: true, tokPlusEq: true, tokMinusEq: true, tokStarEq: true,
	tokSlashEq: true, tokPctEq: true, tokShlEq: true, tokShrEq: true,
	tokAndEq: true, tokOrEq: true, tokXorEq: true,
}

func (p *parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if k := p.peek().kind; assignOps[k] {
		op := p.next()
		rhs, err := p.parseAssignExpr() // right-associative
		if err != nil {
			return nil, err
		}
		if !isLValue(lhs) {
			return nil, errf(op.line, "assignment target is not an lvalue")
		}
		return &Assign{Op: op.kind, LV: lhs, X: rhs, Line: op.line}, nil
	}
	return lhs, nil
}

func (p *parser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokQuestion {
		q := p.next()
		t, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon, "':'"); err != nil {
			return nil, err
		}
		f, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		return &Cond{C: c, T: t, F: f, Line: q.line}, nil
	}
	return c, nil
}

// binPrec gives binding power; higher binds tighter.
var binPrec = map[tokKind]int{
	tokOrOr: 1, tokAndAnd: 2,
	tokPipe: 3, tokCaret: 4, tokAmp: 5,
	tokEq: 6, tokNe: 6,
	tokLt: 7, tokGt: 7, tokLe: 7, tokGe: 7,
	tokShl: 8, tokShr: 8,
	tokPlus: 9, tokMinus: 9,
	tokStar: 10, tokSlash: 10, tokPercent: 10,
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		prec, ok := binPrec[op.kind]
		if !ok || prec <= minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec)
		if err != nil {
			return nil, err
		}
		lhs = fold(&Binary{Op: op.kind, X: lhs, Y: rhs, Line: op.line})
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokBang, tokTilde, tokMinus, tokStar, tokAmp:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.kind == tokAmp && !isLValue(x) {
			return nil, errf(t.line, "'&' needs an lvalue")
		}
		return fold(&Unary{Op: t.kind, X: x, Line: t.line}), nil
	case tokPlus:
		p.next()
		return p.parseUnary()
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().kind {
		case tokLBracket:
			br := p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket, "']'"); err != nil {
				return nil, err
			}
			e = &Index{Base: e, Idx: idx, Line: br.line}
		case tokInc, tokDec:
			op := p.next()
			if !isLValue(e) {
				return nil, errf(op.line, "'%s' needs an lvalue", op.text)
			}
			e = &IncDec{Op: op.kind, LV: e, Line: op.line}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber, tokChar:
		return &NumLit{Val: t.val, Line: t.line}, nil
	case tokIdent:
		if p.peek().kind == tokLParen {
			p.next()
			call := &Call{Name: t.text, Line: t.line}
			if !p.accept(tokRParen) {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(tokComma) {
						break
					}
				}
				if _, err := p.expect(tokRParen, "')'"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		return &Ident{Name: t.text, Line: t.line}, nil
	case tokLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tokRParen, "')'")
		return e, err
	}
	return nil, errf(t.line, "unexpected %q in expression", t.text)
}

// isLValue reports whether e can be assigned to.
func isLValue(e Expr) bool {
	switch x := e.(type) {
	case *Ident:
		return true
	case *Index:
		return true
	case *Unary:
		return x.Op == tokStar
	}
	return false
}

// exprLine reports the source line of an expression.
func exprLine(e Expr) int {
	switch x := e.(type) {
	case *NumLit:
		return x.Line
	case *Ident:
		return x.Line
	case *Unary:
		return x.Line
	case *Binary:
		return x.Line
	case *Cond:
		return x.Line
	case *Assign:
		return x.Line
	case *IncDec:
		return x.Line
	case *Index:
		return x.Line
	case *Call:
		return x.Line
	}
	return 0
}

// fold performs compile-time constant folding.
func fold(e Expr) Expr {
	switch x := e.(type) {
	case *Unary:
		if v, ok := foldConst(x.X); ok {
			switch x.Op {
			case tokMinus:
				return &NumLit{Val: -v, Line: x.Line}
			case tokTilde:
				return &NumLit{Val: int64(^int32(v)), Line: x.Line}
			case tokBang:
				if v == 0 {
					return &NumLit{Val: 1, Line: x.Line}
				}
				return &NumLit{Val: 0, Line: x.Line}
			}
		}
	case *Binary:
		a, aok := foldConst(x.X)
		b, bok := foldConst(x.Y)
		if aok && bok {
			if v, ok := evalBin(x.Op, int32(a), int32(b)); ok {
				return &NumLit{Val: int64(v), Line: x.Line}
			}
		}
	}
	return e
}

// foldConst extracts a compile-time constant.
func foldConst(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *NumLit:
		return x.Val, true
	case *Unary:
		if f, ok := fold(x).(*NumLit); ok {
			return f.Val, true
		}
	case *Binary:
		if f, ok := fold(x).(*NumLit); ok {
			return f.Val, true
		}
	}
	return 0, false
}

// evalBin evaluates a binary operator on 32-bit values.
func evalBin(op tokKind, a, b int32) (int32, bool) {
	switch op {
	case tokPlus:
		return a + b, true
	case tokMinus:
		return a - b, true
	case tokStar:
		return a * b, true
	case tokSlash:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case tokPercent:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case tokAmp:
		return a & b, true
	case tokPipe:
		return a | b, true
	case tokCaret:
		return a ^ b, true
	case tokShl:
		return a << uint(b&31), true
	case tokShr:
		return a >> uint(b&31), true
	case tokEq:
		return b2i32(a == b), true
	case tokNe:
		return b2i32(a != b), true
	case tokLt:
		return b2i32(a < b), true
	case tokGt:
		return b2i32(a > b), true
	case tokLe:
		return b2i32(a <= b), true
	case tokGe:
		return b2i32(a >= b), true
	case tokAndAnd:
		return b2i32(a != 0 && b != 0), true
	case tokOrOr:
		return b2i32(a != 0 || b != 0), true
	}
	return 0, false
}

func b2i32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
