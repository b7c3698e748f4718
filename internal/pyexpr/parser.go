package pyexpr

import (
	"fmt"
	"strings"
)

type pparser struct {
	toks  []token
	pos   int
	depth int // current nesting, see nest
}

// maxNesting bounds how deeply code nests (CPython's parser stops at 200
// nested brackets). Each bracket, statement block, elif, unary operand and
// link of an operator or postfix chain counts as one level, so the
// evaluator, which recurses once per level, never recurses deeper than this
// within one function body.
const maxNesting = 200

// nest enters one more level of nesting; the caller undoes it by
// subtracting what it entered from p.depth.
func (p *pparser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errHere("expression nested more than %d levels deep", maxNesting)
	}
	return nil
}

// unsupported reports a construct outside the subset at the current token.
func (p *pparser) unsupported(construct string) error {
	return &UnsupportedError{Construct: construct, Line: p.cur().line}
}

// unsupportedKeywords maps the statement and expression keywords outside the
// subset to the construct they start.
var unsupportedKeywords = map[string]string{
	"while": "while loop", "try": "try statement", "except": "try statement",
	"finally": "try statement", "lambda": "lambda", "import": "import statement",
	"from": "import statement", "class": "class definition", "with": "with statement",
	"global": "global statement", "nonlocal": "nonlocal statement", "yield": "yield",
	"assert": "assert statement", "del": "del statement", "async": "async", "await": "await",
}

// parsePyProgram parses a module (an expressionLib entry).
func parsePyProgram(src string) ([]stmt, error) {
	toks, err := lexPy(src)
	if err != nil {
		return nil, err
	}
	p := &pparser{toks: toks}
	var stmts []stmt
	for !p.at(tEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		if s != nil {
			stmts = append(stmts, s)
		}
	}
	return stmts, nil
}

// parsePyExpression parses a single expression.
func parsePyExpression(src string) (expr, error) { return parseExpressionAt(src, 0) }

// parseExpressionAt parses a single expression nested depth levels deep.
func parseExpressionAt(src string, depth int) (expr, error) {
	toks, err := lexPy(strings.TrimSpace(src))
	if err != nil {
		return nil, err
	}
	p := &pparser{toks: toks, depth: depth}
	e, err := p.exprTop()
	if err != nil {
		return nil, err
	}
	p.eat(tNewline, "")
	if !p.at(tEOF, "") {
		return nil, p.errHere("unexpected token %q after expression", p.cur().text)
	}
	return e, nil
}

func (p *pparser) cur() token  { return p.toks[p.pos] }
func (p *pparser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *pparser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *pparser) atKw(kw string) bool {
	t := p.cur()
	return t.kind == tName && t.text == kw
}

func (p *pparser) eat(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *pparser) eatKw(kw string) bool {
	if p.atKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *pparser) expect(kind tokKind, text string) error {
	if p.eat(kind, text) {
		return nil
	}
	return p.errHere("expected %q, found %q", text, p.found())
}

// found describes the current token for error messages.
func (p *pparser) found() string {
	if s := map[tokKind]string{tNewline: "newline", tEOF: "end of input", tIndent: "indent", tDedent: "dedent"}[p.cur().kind]; s != "" {
		return s
	}
	return p.cur().text
}

func (p *pparser) errHere(format string, args ...any) error {
	return &SyntaxError{Line: p.cur().line, Msg: fmt.Sprintf(format, args...)}
}

// --- Statements ---

func (p *pparser) statement() (stmt, error) {
	// Swallow stray newlines between statements.
	for p.eat(tNewline, "") {
	}
	if p.at(tEOF, "") {
		return nil, nil
	}
	t := p.cur()
	if t.kind == tName {
		switch t.text {
		case "def":
			return p.defStatementParse()
		case "if":
			return p.ifStatementParse()
		case "for":
			return p.forStatementParse()
		case "return", "raise":
			p.next()
			var x expr
			if !p.at(tNewline, "") && !p.at(tEOF, "") && !p.at(tOp, ";") {
				var err error
				if x, err = p.exprTop(); err != nil {
					return nil, err
				}
			}
			p.endSimple()
			if t.text == "raise" {
				return &raiseStmt{pos: pos{t.line}, X: x}, nil
			}
			return &returnStatement{pos: pos{t.line}, X: x}, nil
		case "pass", "break", "continue":
			p.next()
			p.endSimple()
			return &jumpStmt{pos: pos{t.line}, Word: t.text}, nil
		}
		if construct, ok := unsupportedKeywords[t.text]; ok {
			return nil, p.unsupported(construct)
		}
	}
	// Expression or assignment.
	target, err := p.exprList()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "//=", "%=", "**="} {
		if p.at(tOp, op) {
			p.next()
			val, err := p.exprList()
			if err != nil {
				return nil, err
			}
			if err := validTarget(target, op, t.line); err != nil {
				return nil, err
			}
			p.endSimple()
			return &assignStmt{pos: pos{t.line}, Target: target, Op: op, Value: val}, nil
		}
	}
	p.endSimple()
	return &exprStatement{pos: pos{t.line}, X: target}, nil
}

// validTarget admits the subset's assignment targets: a name or a
// subscript.
func validTarget(e expr, op string, line int) error {
	switch e.(type) {
	case *nameRef, *subscript:
		return nil
	case *attrRef:
		return &UnsupportedError{Construct: "attribute assignment", Line: line}
	case *tupleLit:
		return &UnsupportedError{Construct: "tuple assignment", Line: line}
	}
	return &SyntaxError{Line: line, Msg: fmt.Sprintf("invalid target for %q", op)}
}

// endSimple consumes the statement terminator (newline or semicolon).
func (p *pparser) endSimple() {
	if p.eat(tOp, ";") {
		return
	}
	p.eat(tNewline, "")
}

// suite parses ":" NEWLINE INDENT stmts DEDENT, or an inline simple
// statement, one nesting level deeper.
func (p *pparser) suite() ([]stmt, error) {
	return nested(p, p.block)
}

func (p *pparser) block() ([]stmt, error) {
	if err := p.expect(tOp, ":"); err != nil {
		return nil, err
	}
	if !p.eat(tNewline, "") {
		// Inline suite: one or more simple statements on the same line.
		var stmts []stmt
		for {
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			if s != nil {
				stmts = append(stmts, s)
			}
			if !p.at(tOp, ";") {
				break
			}
		}
		return stmts, nil
	}
	if !p.eat(tIndent, "") {
		return nil, p.errHere("expected an indented block")
	}
	var stmts []stmt
	for !p.at(tDedent, "") && !p.at(tEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		if s != nil {
			stmts = append(stmts, s)
		}
	}
	p.eat(tDedent, "")
	return stmts, nil
}

func (p *pparser) defStatementParse() (stmt, error) {
	t := p.next() // def
	nameTok := p.cur()
	if nameTok.kind != tName || pyKeywords[nameTok.text] {
		return nil, p.errHere("expected function name")
	}
	p.next()
	if err := p.expect(tOp, "("); err != nil {
		return nil, err
	}
	var params []string
	var defaults []expr
	for !p.at(tOp, ")") {
		if p.at(tOp, "*") || p.at(tOp, "**") || p.at(tOp, "/") {
			return nil, p.unsupported("special parameter")
		}
		pt := p.cur()
		if pt.kind != tName || pyKeywords[pt.text] {
			return nil, p.errHere("expected parameter name")
		}
		p.next()
		if p.at(tOp, ":") {
			return nil, p.unsupported("parameter annotation")
		}
		params = append(params, pt.text)
		if p.eat(tOp, "=") {
			d, err := p.exprTop()
			if err != nil {
				return nil, err
			}
			defaults = append(defaults, d)
		} else if len(defaults) > 0 {
			return nil, p.errHere("non-default parameter after default parameter")
		}
		if !p.eat(tOp, ",") {
			break
		}
	}
	if err := p.expect(tOp, ")"); err != nil {
		return nil, err
	}
	body, err := p.suite()
	if err != nil {
		return nil, err
	}
	return &defStatement{pos: pos{t.line}, Name: nameTok.text, Params: params, Defaults: defaults, Body: body}, nil
}

func (p *pparser) ifStatementParse() (stmt, error) {
	t := p.next() // if / elif
	test, err := p.exprTop()
	if err != nil {
		return nil, err
	}
	then, err := p.suite()
	if err != nil {
		return nil, err
	}
	node := &ifStatement{pos: pos{t.line}, Test: test, Then: then}
	for p.eat(tNewline, "") {
	}
	if p.atKw("elif") {
		elifStmt, err := nested(p, p.ifStatementParse)
		if err != nil {
			return nil, err
		}
		node.Else = []stmt{elifStmt}
	} else if p.atKw("else") {
		p.next()
		els, err := p.suite()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

func (p *pparser) forStatementParse() (stmt, error) {
	t := p.next()
	vars, err := p.targetNames()
	if err != nil {
		return nil, err
	}
	if !p.eatKw("in") {
		return nil, p.errHere("expected 'in' in for statement")
	}
	iter, err := p.exprList()
	if err != nil {
		return nil, err
	}
	body, err := p.suite()
	if err != nil {
		return nil, err
	}
	return &forStatement{pos: pos{t.line}, Vars: vars, Iter: iter, Body: body}, nil
}

func (p *pparser) targetNames() ([]string, error) {
	var names []string
	paren := p.eat(tOp, "(")
	for {
		t := p.cur()
		if t.kind != tName || pyKeywords[t.text] {
			return nil, p.errHere("expected loop variable name")
		}
		p.next()
		names = append(names, t.text)
		if !p.eat(tOp, ",") {
			break
		}
	}
	if paren {
		if err := p.expect(tOp, ")"); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// --- Expressions ---

// exprList parses comma-separated expressions into a tuple (Python's "1, 2").
func (p *pparser) exprList() (expr, error) {
	first, err := p.exprTop()
	if err != nil {
		return nil, err
	}
	if !p.at(tOp, ",") {
		return first, nil
	}
	tl := &tupleLit{pos: pos{p.cur().line}, Elems: []expr{first}}
	for p.eat(tOp, ",") {
		if p.at(tNewline, "") || p.at(tOp, "=") || p.at(tEOF, "") {
			break
		}
		e, err := p.exprTop()
		if err != nil {
			return nil, err
		}
		tl.Elems = append(tl.Elems, e)
	}
	return tl, nil
}

// exprTop parses one full expression (the conditional-expression level).
// Every bracketed or parenthesized sub-expression enters here, so it is
// where nesting is counted.
func (p *pparser) exprTop() (expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	e, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if p.atKw("if") {
		t := p.next()
		test, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if !p.eatKw("else") {
			return nil, p.errHere("expected 'else' in conditional expression")
		}
		els, err := p.exprTop()
		if err != nil {
			return nil, err
		}
		return &ternary{pos: pos{t.line}, Then: e, Test: test, Else: els}, nil
	}
	return e, nil
}

// binaryChain parses one left-associative operator level: operands from
// operand, joined while match reports an operator. Each link nests the
// tree one level deeper, so each counts toward maxNesting.
func (p *pparser) binaryChain(operand func() (expr, error), match func() bool, build func(op token, l, r expr) expr) (expr, error) {
	l, err := operand()
	if err != nil {
		return nil, err
	}
	entered := 0
	defer func() { p.depth -= entered }()
	for match() {
		t := p.next()
		if err := p.nest(); err != nil {
			return nil, err
		}
		entered++
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = build(t, l, r)
	}
	return l, nil
}

func (p *pparser) orExpr() (expr, error) {
	return p.binaryChain(p.andExpr, func() bool { return p.atKw("or") },
		func(t token, l, r expr) expr { return &boolOp{pos: pos{t.line}, Op: "or", L: l, R: r} })
}

func (p *pparser) andExpr() (expr, error) {
	return p.binaryChain(p.notExpr, func() bool { return p.atKw("and") },
		func(t token, l, r expr) expr { return &boolOp{pos: pos{t.line}, Op: "and", L: l, R: r} })
}

func (p *pparser) notExpr() (expr, error) {
	if p.atKw("not") {
		t := p.next()
		x, err := nested(p, p.notExpr)
		if err != nil {
			return nil, err
		}
		return &unaryOp{pos: pos{t.line}, Op: "not", X: x}, nil
	}
	return p.comparison()
}

// nested runs parse one nesting level deeper.
func nested[T any](p *pparser, parse func() (T, error)) (T, error) {
	if err := p.nest(); err != nil {
		var zero T
		return zero, err
	}
	defer func() { p.depth-- }()
	return parse()
}

var compOps = map[string]bool{"==": true, "!=": true, "<": true, ">": true, "<=": true, ">=": true}

func (p *pparser) comparison() (expr, error) {
	l, err := p.arith()
	if err != nil {
		return nil, err
	}
	var ops []string
	var rest []expr
	for {
		var op string
		switch {
		case p.cur().kind == tOp && compOps[p.cur().text]:
			op = p.next().text
		case p.atKw("in"):
			p.next()
			op = "in"
		case p.atKw("not"):
			// "not in"
			save := p.pos
			p.next()
			if !p.eatKw("in") {
				p.pos = save
				goto done
			}
			op = "not in"
		case p.atKw("is"):
			p.next()
			if p.eatKw("not") {
				op = "is not"
			} else {
				op = "is"
			}
		default:
			goto done
		}
		r, err := p.arith()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		rest = append(rest, r)
	}
done:
	if len(ops) == 0 {
		return l, nil
	}
	return &compare{pos: pos{l.exprLine()}, First: l, Ops: ops, Rest: rest}, nil
}

func (p *pparser) arith() (expr, error) {
	return p.binaryChain(p.term, func() bool { return p.at(tOp, "+") || p.at(tOp, "-") },
		func(t token, l, r expr) expr { return &binOp{pos: pos{t.line}, Op: t.text, L: l, R: r} })
}

func (p *pparser) term() (expr, error) {
	return p.binaryChain(p.factor, func() bool {
		return p.at(tOp, "*") || p.at(tOp, "/") || p.at(tOp, "//") || p.at(tOp, "%")
	}, func(t token, l, r expr) expr { return &binOp{pos: pos{t.line}, Op: t.text, L: l, R: r} })
}

func (p *pparser) factor() (expr, error) {
	if p.at(tOp, "-") || p.at(tOp, "+") {
		t := p.next()
		x, err := nested(p, p.factor)
		if err != nil {
			return nil, err
		}
		return &unaryOp{pos: pos{t.line}, Op: t.text, X: x}, nil
	}
	return p.power()
}

func (p *pparser) power() (expr, error) {
	l, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if p.at(tOp, "**") {
		t := p.next()
		r, err := nested(p, p.factor) // right-associative
		if err != nil {
			return nil, err
		}
		return &binOp{pos: pos{t.line}, Op: "**", L: l, R: r}, nil
	}
	return l, nil
}

func (p *pparser) postfix() (expr, error) {
	x, err := p.atom()
	if err != nil {
		return nil, err
	}
	entered := 0
	defer func() { p.depth -= entered }()
	for p.at(tOp, ".") || p.at(tOp, "[") || p.at(tOp, "(") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		entered++
		t := p.next()
		switch t.text {
		case ".":
			name := p.cur()
			if name.kind != tName {
				return nil, p.errHere("expected attribute name after '.'")
			}
			p.next()
			x = &attrRef{pos: pos{name.line}, Obj: x, Name: name.text}
		case "[":
			x, err = p.subscriptRest(x, t)
		case "(":
			x, err = p.callRest(x, t)
		}
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// subscriptRest parses an index or slice after its '['.
func (p *pparser) subscriptRest(obj expr, t token) (expr, error) {
	var low, high, step expr
	var err error
	if !p.at(tOp, ":") {
		if low, err = p.exprTop(); err != nil {
			return nil, err
		}
	}
	if !p.eat(tOp, ":") {
		if err := p.expect(tOp, "]"); err != nil {
			return nil, err
		}
		return &subscript{pos: pos{t.line}, Obj: obj, Key: low}, nil
	}
	if !p.at(tOp, ":") && !p.at(tOp, "]") {
		if high, err = p.exprTop(); err != nil {
			return nil, err
		}
	}
	if p.eat(tOp, ":") && !p.at(tOp, "]") {
		if step, err = p.exprTop(); err != nil {
			return nil, err
		}
	}
	if err := p.expect(tOp, "]"); err != nil {
		return nil, err
	}
	return &sliceExpr{pos: pos{t.line}, Obj: obj, Low: low, High: high, Step_: step}, nil
}

// callRest parses a call's arguments after its '('.
func (p *pparser) callRest(fn expr, t token) (expr, error) {
	c := &callExpr{pos: pos{t.line}, Fn: fn}
	for !p.at(tOp, ")") {
		if p.at(tOp, "*") || p.at(tOp, "**") {
			return nil, p.unsupported("argument unpacking")
		}
		if p.cur().kind == tName && !pyKeywords[p.cur().text] && p.toks[p.pos+1].kind == tOp && p.toks[p.pos+1].text == "=" {
			kw := p.next().text
			p.next() // =
			v, err := p.exprTop()
			if err != nil {
				return nil, err
			}
			c.KwName = append(c.KwName, kw)
			c.KwVal = append(c.KwVal, v)
		} else {
			a, err := p.exprTop()
			if err != nil {
				return nil, err
			}
			if len(c.KwName) > 0 {
				return nil, p.errHere("positional argument after keyword argument")
			}
			if p.atKw("for") {
				return nil, p.unsupported("generator expression")
			}
			c.Args = append(c.Args, a)
		}
		if !p.eat(tOp, ",") {
			break
		}
	}
	if err := p.expect(tOp, ")"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *pparser) atom() (expr, error) {
	t := p.cur()
	switch t.kind {
	case tNum:
		p.next()
		if t.isInt {
			return &intLit{pos: pos{t.line}, V: t.ival}, nil
		}
		return &floatLit{pos: pos{t.line}, V: t.num}, nil
	case tStr:
		p.next()
		// Adjacent string literal concatenation.
		s := t.text
		for p.cur().kind == tStr {
			s += p.next().text
		}
		return &strLit{pos: pos{t.line}, V: s}, nil
	case tFStr:
		p.next()
		return p.parseFString(t.text, t.line)
	case tName:
		switch t.text {
		case "True", "False":
			p.next()
			return &boolLit{pos: pos{t.line}, V: t.text == "True"}, nil
		case "None":
			p.next()
			return &noneLit{pos: pos{t.line}}, nil
		}
		if construct, ok := unsupportedKeywords[t.text]; ok {
			return nil, p.unsupported(construct)
		}
		if pyKeywords[t.text] {
			return nil, p.errHere("unexpected keyword %q", t.text)
		}
		p.next()
		return &nameRef{pos: pos{t.line}, Name: t.text}, nil
	case tOp:
		switch t.text {
		case "(":
			p.next()
			return p.parenRest(t)
		case "[":
			p.next()
			return p.listRest(t)
		case "{":
			p.next()
			return p.dictRest(t)
		}
	}
	return nil, p.errHere("unexpected %q", p.found())
}

// parenRest parses a parenthesized expression or a tuple after its '('.
func (p *pparser) parenRest(t token) (expr, error) {
	if p.eat(tOp, ")") {
		return &tupleLit{pos: pos{t.line}}, nil
	}
	e, err := p.exprTop()
	if err != nil {
		return nil, err
	}
	if p.atKw("for") {
		return nil, p.unsupported("generator expression")
	}
	if !p.at(tOp, ",") {
		if err := p.expect(tOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	tl := &tupleLit{pos: pos{t.line}, Elems: []expr{e}}
	for p.eat(tOp, ",") && !p.at(tOp, ")") {
		e2, err := p.exprTop()
		if err != nil {
			return nil, err
		}
		tl.Elems = append(tl.Elems, e2)
	}
	if err := p.expect(tOp, ")"); err != nil {
		return nil, err
	}
	return tl, nil
}

// listRest parses a list literal or list comprehension after its '['.
func (p *pparser) listRest(t token) (expr, error) {
	if p.eat(tOp, "]") {
		return &listLit{pos: pos{t.line}}, nil
	}
	first, err := p.exprTop()
	if err != nil {
		return nil, err
	}
	if p.eatKw("for") {
		vars, err := p.targetNames()
		if err != nil {
			return nil, err
		}
		if !p.eatKw("in") {
			return nil, p.errHere("expected 'in' in comprehension")
		}
		iter, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		var cond expr
		if p.eatKw("if") {
			if cond, err = p.orExpr(); err != nil {
				return nil, err
			}
		}
		if p.atKw("for") || p.atKw("if") {
			return nil, p.unsupported("comprehension with several clauses")
		}
		if err := p.expect(tOp, "]"); err != nil {
			return nil, err
		}
		return &listComp{pos: pos{t.line}, Out: first, Vars: vars, Iter: iter, Cond: cond}, nil
	}
	ll := &listLit{pos: pos{t.line}, Elems: []expr{first}}
	for p.eat(tOp, ",") && !p.at(tOp, "]") {
		e, err := p.exprTop()
		if err != nil {
			return nil, err
		}
		ll.Elems = append(ll.Elems, e)
	}
	if err := p.expect(tOp, "]"); err != nil {
		return nil, err
	}
	return ll, nil
}

// dictRest parses a dict literal after its '{'; a set literal or a dict
// comprehension is outside the subset.
func (p *pparser) dictRest(t token) (expr, error) {
	dl := &dictLit{pos: pos{t.line}}
	for !p.at(tOp, "}") {
		k, err := p.exprTop()
		if err != nil {
			return nil, err
		}
		if !p.at(tOp, ":") {
			return nil, p.unsupported("set literal")
		}
		p.next()
		v, err := p.exprTop()
		if err != nil {
			return nil, err
		}
		if p.atKw("for") {
			return nil, p.unsupported("dict comprehension")
		}
		dl.Keys = append(dl.Keys, k)
		dl.Vals = append(dl.Vals, v)
		if !p.eat(tOp, ",") {
			break
		}
	}
	if err := p.expect(tOp, "}"); err != nil {
		return nil, err
	}
	return dl, nil
}

// parseFString splits an f-string body into literal and expression parts.
// Interpolated expressions parse at the enclosing nesting depth.
func (p *pparser) parseFString(body string, line int) (expr, error) {
	node := &fstrLit{pos: pos{line}}
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			node.Parts = append(node.Parts, fstrPart{Text: unescapeLit(lit.String())})
			lit.Reset()
		}
	}
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case (c == '{' || c == '}') && i+1 < len(body) && body[i+1] == c:
			lit.WriteByte(c)
			i++
		case c == '}':
			return nil, &SyntaxError{Line: line, Msg: "single '}' in f-string"}
		case c == '{':
			flush()
			end, colon := fieldEnd(body[i+1:])
			if end < 0 {
				return nil, &SyntaxError{Line: line, Msg: "unbalanced braces in f-string"}
			}
			field, part := body[i+1:i+1+end], fstrPart{}
			if colon >= 0 {
				field, part.Spec = field[:colon], field[colon+1:]
			}
			if n := len(field); n >= 2 && field[n-2] == '!' && (field[n-1] == 'r' || field[n-1] == 's') {
				field, part.Conv = field[:n-2], field[n-1]
			}
			e, err := parseExpressionAt(field, p.depth)
			if err != nil {
				return nil, err
			}
			part.Expr = e
			node.Parts = append(node.Parts, part)
			i += 1 + end
		default:
			lit.WriteByte(c)
		}
	}
	flush()
	return node, nil
}

// fieldEnd scans an f-string replacement field that starts after its '{',
// skipping brackets and quoted strings, and returns the index of the '}'
// closing it (-1 if none) and of its format-spec ':' (-1 if none).
func fieldEnd(s string) (end, colon int) {
	depth, colon := 0, -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[', '{':
			depth++
		case ')', ']':
			depth--
		case '}':
			if depth == 0 {
				return i, colon
			}
			depth--
		case '\'', '"':
			q := s[i]
			for i++; i < len(s) && s[i] != q; i++ {
			}
		case ':':
			if depth == 0 && colon < 0 {
				colon = i
			}
		}
	}
	return -1, colon
}

// unescapeLit processes backslash escapes kept raw during f-string lexing.
func unescapeLit(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			text, n := unescapePy(s[i+1:])
			b.WriteString(text)
			i += n
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
