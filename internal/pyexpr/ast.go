package pyexpr

// stmt is a Python statement node.
type stmt interface{ stmtLine() int }

// expr is a Python expression node.
type expr interface{ exprLine() int }

type pos struct{ Line int }

func (p pos) stmtLine() int { return p.Line }
func (p pos) exprLine() int { return p.Line }

// --- Expressions ---

type intLit struct {
	pos
	V int64
}

type floatLit struct {
	pos
	V float64
}

type strLit struct {
	pos
	V string
}

type fstrLit struct {
	pos
	// Parts alternate literal text and embedded expressions.
	Parts []fstrPart
}

type fstrPart struct {
	Text string // literal segment (when Expr is nil)
	Expr expr   // interpolated expression
	Spec string // format spec after ':', e.g. ".2f"
	Conv byte   // conversion !r / !s, 0 if none
}

type boolLit struct {
	pos
	V bool
}

type noneLit struct{ pos }

type nameRef struct {
	pos
	Name string
}

type listLit struct {
	pos
	Elems []expr
}

type tupleLit struct {
	pos
	Elems []expr
}

type dictLit struct {
	pos
	Keys []expr
	Vals []expr
}

type attrRef struct {
	pos
	Obj  expr
	Name string
}

type subscript struct {
	pos
	Obj expr
	Key expr
}

type sliceExpr struct {
	pos
	Obj              expr
	Low, High, Step_ expr // nil = omitted
}

type callExpr struct {
	pos
	Fn     expr
	Args   []expr
	KwName []string
	KwVal  []expr
}

type unaryOp struct {
	pos
	Op string // "-", "+", "not"
	X  expr
}

type binOp struct {
	pos
	Op   string
	L, R expr
}

type boolOp struct {
	pos
	Op   string // "and" / "or"
	L, R expr
}

// compare handles chained comparisons: a < b <= c.
type compare struct {
	pos
	First expr
	Ops   []string
	Rest  []expr
}

type ternary struct {
	pos
	Then, Test, Else expr
}

// listComp is [out for var in iter if cond].
type listComp struct {
	pos
	Out  expr
	Vars []string // loop targets (tuple unpack allowed)
	Iter expr
	Cond expr // nil = unconditional
}

// --- Statements ---

type exprStatement struct {
	pos
	X expr
}

type assignStmt struct {
	pos
	// Targets: nameRef, attrRef, subscript, or tupleLit of names.
	Target expr
	Op     string // "=", "+=", ...
	Value  expr
}

type returnStatement struct {
	pos
	X expr // nil = None
}

// jumpStmt is pass, break or continue.
type jumpStmt struct {
	pos
	Word string
}

type raiseStmt struct {
	pos
	X expr // nil = re-raise
}

type ifStatement struct {
	pos
	Test expr
	Then []stmt
	Else []stmt // may contain a single ifStatement for elif chains
}

type forStatement struct {
	pos
	Vars []string
	Iter expr
	Body []stmt
}

type defStatement struct {
	pos
	Name     string
	Params   []string
	Defaults []expr // aligned to the tail of Params
	Body     []stmt
}
