package cc

// Type is a MiniC type: int or int*.
type Type int

// MiniC types.
const (
	TypeVoid Type = iota
	TypeInt
	TypePtr // int *
)

// String names the type for diagnostics.
func (t Type) String() string {
	switch t {
	case TypeVoid:
		return "void"
	case TypeInt:
		return "int"
	case TypePtr:
		return "int*"
	}
	return "?"
}

// Program AST root.

// File is a parsed translation unit.
type File struct {
	Globals []*GlobalDecl
	Funcs   []*FuncDecl

	tokens int // tokens lexed by Parse: Generate sizes its output from it
}

// GlobalDecl is a file-scope variable: a scalar or an int array.
type GlobalDecl struct {
	Name    string
	IsArr   bool
	Size    int     // elements (arrays)
	Init    []int64 // constant initializers (len <= Size)
	HasInit bool
	Line    int
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Ret    Type
	Params []Param
	Body   *Block
	Line   int
}

// Param is one function parameter.
type Param struct {
	Name string
	Typ  Type
}

// Statements.

// Stmt is the statement interface.
type Stmt interface{ stmtNode() }

// Block is { ... }.
type Block struct {
	Stmts []Stmt
}

// DeclStmt declares a local: `int x;`, `int x = e;`, `int *p = e;`.
type DeclStmt struct {
	Name string
	Typ  Type
	Init Expr // may be nil
	Line int
}

// ExprStmt is an expression evaluated for effect (calls, assignments).
type ExprStmt struct {
	X    Expr
	Line int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Line int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Line int
}

// DoWhileStmt is a do { } while (cond); loop.
type DoWhileStmt struct {
	Body Stmt
	Cond Expr
	Line int
}

// ForStmt is for(init; cond; post).
type ForStmt struct {
	Init Stmt // may be nil (DeclStmt or ExprStmt)
	Cond Expr // may be nil (infinite)
	Post Expr // may be nil
	Body Stmt
	Line int
}

// ReturnStmt returns from the function.
type ReturnStmt struct {
	X    Expr // nil for void return
	Line int
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line int }

func (*Block) stmtNode()        {}
func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*DoWhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// Expressions.

// Expr is the expression interface.
type Expr interface{ exprNode() }

// NumLit is an integer literal.
type NumLit struct {
	Val  int64
	Line int
}

// Ident references a variable (local, parameter, or global).
type Ident struct {
	Name string
	Line int
}

// Unary is !x, ~x, -x, *p, &lv.
type Unary struct {
	Op   tokKind
	X    Expr
	Line int
}

// Binary is a binary operator.
type Binary struct {
	Op   tokKind
	X, Y Expr
	Line int
}

// Cond is the ternary x ? y : z.
type Cond struct {
	C, T, F Expr
	Line    int
}

// Assign is lv = x, or compound lv op= x.
type Assign struct {
	Op   tokKind // tokAssign or compound token
	LV   Expr    // Ident, Index, or Unary{*}
	X    Expr
	Line int
}

// IncDec is lv++ / lv-- (statement-level sugar for lv = lv +/- 1).
type IncDec struct {
	Op   tokKind // tokInc or tokDec
	LV   Expr
	Line int
}

// Index is a[i] — array or pointer indexing.
type Index struct {
	Base Expr
	Idx  Expr
	Line int
}

// Call is f(args...).
type Call struct {
	Name string
	Args []Expr
	Line int
}

func (*NumLit) exprNode() {}
func (*Ident) exprNode()  {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}
func (*Cond) exprNode()   {}
func (*Assign) exprNode() {}
func (*IncDec) exprNode() {}
func (*Index) exprNode()  {}
func (*Call) exprNode()   {}
