package jsexpr

import "fmt"

type parser struct {
	toks  []token
	pos   int
	depth int // current nesting, see nest
}

// maxNesting bounds how deeply expressions and statements nest. Each
// bracket, statement block, unary operand and link of an operator or member
// chain counts as one level, so the evaluator, which recurses once per
// level, never recurses deeper than this within one function.
const maxNesting = 200

func errNesting(pos int) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf("expression nested more than %d levels deep", maxNesting)}
}

// nest enters one more level of nesting; the caller undoes it by
// subtracting what it entered from p.depth.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return errNesting(p.cur().pos)
	}
	return nil
}

// nested runs parse one nesting level deeper.
func nested[T any](p *parser, parse func() (T, error)) (T, error) {
	if err := p.nest(); err != nil {
		var zero T
		return zero, err
	}
	defer func() { p.depth-- }()
	return parse()
}

// chain parses one left-associative operator level: operands from operand,
// joined while match accepts the current token. Each link nests the tree
// one level deeper, so each counts toward maxNesting.
func (p *parser) chain(operand func() (Node, error), match func() bool, build func(op token, l, r Node) Node) (Node, error) {
	left, err := operand()
	if err != nil {
		return nil, err
	}
	links := 0
	defer func() { p.depth -= links }()
	for match() {
		t := p.next()
		if err := p.nest(); err != nil {
			return nil, err
		}
		links++
		right, err := operand()
		if err != nil {
			return nil, err
		}
		left = build(t, left, right)
	}
	return left, nil
}

func binaryNode(t token, l, r Node) Node  { return &binary{base: base{t.pos}, Op: t.text, L: l, R: r} }
func logicalNode(t token, l, r Node) Node { return &logical{base: base{t.pos}, Op: t.text, L: l, R: r} }

// parseProgram parses a statement list (a function body or expressionLib
// source).
func parseProgram(src string) ([]Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Node
	for !p.at(tEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

// parseExpression parses a single expression (the inside of $(...)).
func parseExpression(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.at(tEOF, "") {
		return nil, p.errHere("unexpected token %q after expression", p.cur().text)
	}
	return e, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) atIdent(name string) bool {
	t := p.cur()
	return t.kind == tIdent && t.text == name
}

func (p *parser) eat(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) error {
	if p.eat(kind, text) {
		return nil
	}
	return p.errHere("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errHere(format string, args ...any) error {
	return &SyntaxError{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

// --- Statements ---

// statement parses one statement one nesting level deeper.
func (p *parser) statement() (Node, error) { return nested(p, p.statementAt) }

func (p *parser) statementAt() (Node, error) {
	t := p.cur()
	if t.kind == tIdent {
		switch t.text {
		case "var", "let", "const":
			return p.varStatement()
		case "function":
			return p.functionDecl()
		case "return":
			p.next()
			if p.eat(tPunct, ";") || p.at(tPunct, "}") || p.at(tEOF, "") {
				return &returnStmt{base: base{t.pos}}, nil
			}
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			p.eat(tPunct, ";")
			return &returnStmt{base: base{t.pos}, X: x}, nil
		case "if":
			return p.ifStatement()
		case "while":
			return p.whileStatement()
		case "do":
			return nil, p.errHere("do-while loops are not supported in CWL expressions")
		case "for":
			return p.forStatement()
		case "break":
			p.next()
			p.eat(tPunct, ";")
			return &breakStmt{base: base{t.pos}}, nil
		case "continue":
			p.next()
			p.eat(tPunct, ";")
			return &continueStmt{base: base{t.pos}}, nil
		case "throw":
			p.next()
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			p.eat(tPunct, ";")
			return &throwStmt{base: base{t.pos}, X: x}, nil
		}
	}
	if p.at(tPunct, "{") {
		stmts, err := p.block()
		if err != nil {
			return nil, err
		}
		return &blockStmt{base: base{t.pos}, Stmts: stmts}, nil
	}
	if p.eat(tPunct, ";") {
		return &blockStmt{base: base{t.pos}}, nil
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.eat(tPunct, ";")
	return &exprStmt{base: base{t.pos}, X: x}, nil
}

func (p *parser) varStatement() (Node, error) {
	t := p.next() // var/let/const
	d := &varDecl{base: base{t.pos}}
	for {
		nameTok := p.cur()
		if nameTok.kind != tIdent || jsKeywords[nameTok.text] {
			return nil, p.errHere("expected variable name, found %q", nameTok.text)
		}
		p.next()
		d.Names = append(d.Names, nameTok.text)
		if p.eat(tPunct, "=") {
			init, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			d.Inits = append(d.Inits, init)
		} else {
			d.Inits = append(d.Inits, nil)
		}
		if !p.eat(tPunct, ",") {
			break
		}
	}
	p.eat(tPunct, ";")
	return d, nil
}

func (p *parser) functionDecl() (Node, error) {
	t := p.next() // function
	nameTok := p.cur()
	if nameTok.kind != tIdent || jsKeywords[nameTok.text] {
		return nil, p.errHere("expected function name")
	}
	p.next()
	fn, err := p.functionRest(t.pos, nameTok.text)
	if err != nil {
		return nil, err
	}
	return &exprStmt{base: base{t.pos}, X: fn}, nil
}

func (p *parser) functionRest(pos int, name string) (Node, error) {
	if err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(tPunct, ")") {
		t := p.cur()
		if t.kind != tIdent || jsKeywords[t.text] {
			return nil, p.errHere("expected parameter name")
		}
		p.next()
		params = append(params, t.text)
		if !p.eat(tPunct, ",") {
			break
		}
	}
	if err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &funcLit{base: base{pos}, Name: name, Params: params, Body: body}, nil
}

func (p *parser) block() ([]Node, error) {
	if err := p.expect(tPunct, "{"); err != nil {
		return nil, err
	}
	var stmts []Node
	for !p.at(tPunct, "}") {
		if p.at(tEOF, "") {
			return nil, p.errHere("unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.next() // }
	return stmts, nil
}

// blockOrSingle parses either a braced block or a single statement.
func (p *parser) blockOrSingle() ([]Node, error) {
	if p.at(tPunct, "{") {
		return p.block()
	}
	s, err := p.statement()
	if err != nil {
		return nil, err
	}
	return []Node{s}, nil
}

func (p *parser) ifStatement() (Node, error) {
	t := p.next() // if
	if err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	test, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	var els []Node
	if p.atIdent("else") {
		p.next()
		if p.atIdent("if") {
			s, err := nested(p, p.ifStatement)
			if err != nil {
				return nil, err
			}
			els = []Node{s}
		} else {
			els, err = p.blockOrSingle()
			if err != nil {
				return nil, err
			}
		}
	}
	return &ifStmt{base: base{t.pos}, Test: test, Then: then, Else: els}, nil
}

func (p *parser) whileStatement() (Node, error) {
	t := p.next() // while
	if err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	test, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	return &whileStmt{base: base{t.pos}, Test: test, Body: body}, nil
}

func (p *parser) forStatement() (Node, error) {
	t := p.next() // for
	if err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	// for (var x of expr) / for (var x in expr)
	if p.atIdent("var") || p.atIdent("let") || p.atIdent("const") {
		save := p.pos
		p.next()
		if p.cur().kind == tIdent && !jsKeywords[p.cur().text] {
			name := p.next().text
			if p.atIdent("of") || p.atIdent("in") {
				of := p.next().text == "of"
				obj, err := p.expr()
				if err != nil {
					return nil, err
				}
				if err := p.expect(tPunct, ")"); err != nil {
					return nil, err
				}
				body, err := p.blockOrSingle()
				if err != nil {
					return nil, err
				}
				return &forInOf{base: base{t.pos}, VarName: name, Of: of, Obj: obj, Body: body}, nil
			}
		}
		p.pos = save
	}
	// classic for (init; test; post)
	var init Node
	var err error
	if !p.at(tPunct, ";") {
		if p.atIdent("var") || p.atIdent("let") || p.atIdent("const") {
			init, err = p.varStatement() // consumes trailing ';' if present
		} else {
			var x Node
			x, err = p.expr()
			init = &exprStmt{X: x}
			if err == nil {
				err = p.expect(tPunct, ";")
			}
		}
		if err != nil {
			return nil, err
		}
	} else {
		p.next() // ;
	}
	var test Node
	if !p.at(tPunct, ";") {
		test, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	var post Node
	if !p.at(tPunct, ")") {
		post, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.blockOrSingle()
	if err != nil {
		return nil, err
	}
	return &forStmt{base: base{t.pos}, Init: init, Test: test, Post: post, Body: body}, nil
}

// --- Expressions (precedence climbing) ---

func (p *parser) expr() (Node, error) { return p.assignExpr() }

// assignExpr parses an assignment-level expression one nesting level
// deeper: every bracketed sub-expression and argument enters here.
func (p *parser) assignExpr() (Node, error) { return nested(p, p.assignAt) }

func (p *parser) assignAt() (Node, error) {
	left, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%="} {
		if p.at(tPunct, op) {
			t := p.next()
			switch left.(type) {
			case *ident, *member, *index:
			default:
				return nil, &SyntaxError{Pos: t.pos, Msg: "invalid assignment target"}
			}
			val, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &assign{base: base{t.pos}, Op: op, Target: left, Val: val}, nil
		}
	}
	return left, nil
}

func (p *parser) condExpr() (Node, error) {
	test, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if !p.eat(tPunct, "?") {
		return test, nil
	}
	then, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tPunct, ":"); err != nil {
		return nil, err
	}
	els, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	return &cond{base: base{test.nodePos()}, Test: test, Then: then, Else: els}, nil
}

func (p *parser) orExpr() (Node, error) {
	return p.chain(p.andExpr, func() bool { return p.at(tPunct, "||") }, logicalNode)
}

func (p *parser) andExpr() (Node, error) {
	return p.chain(p.eqExpr, func() bool { return p.at(tPunct, "&&") }, logicalNode)
}

func (p *parser) eqExpr() (Node, error) {
	return p.chain(p.relExpr, func() bool {
		return p.at(tPunct, "==") || p.at(tPunct, "!=") || p.at(tPunct, "===") || p.at(tPunct, "!==")
	}, binaryNode)
}

func (p *parser) relExpr() (Node, error) {
	return p.chain(p.addExpr, func() bool {
		return p.at(tPunct, "<") || p.at(tPunct, ">") || p.at(tPunct, "<=") || p.at(tPunct, ">=") || p.atIdent("in")
	}, binaryNode)
}

func (p *parser) addExpr() (Node, error) {
	return p.chain(p.mulExpr, func() bool { return p.at(tPunct, "+") || p.at(tPunct, "-") }, binaryNode)
}

func (p *parser) mulExpr() (Node, error) {
	return p.chain(p.unaryExpr, func() bool { return p.at(tPunct, "*") || p.at(tPunct, "/") || p.at(tPunct, "%") || p.at(tPunct, "**") }, binaryNode)
}

func (p *parser) unaryExpr() (Node, error) {
	t := p.cur()
	if p.at(tPunct, "!") || p.at(tPunct, "-") || p.at(tPunct, "+") || p.atIdent("typeof") || p.at(tPunct, "++") || p.at(tPunct, "--") {
		p.next()
		x, err := nested(p, p.unaryExpr)
		if err != nil {
			return nil, err
		}
		return &unary{base: base{t.pos}, Op: t.text, X: x}, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Node, error) {
	x, err := p.callMemberExpr()
	if err != nil {
		return nil, err
	}
	if p.at(tPunct, "++") || p.at(tPunct, "--") {
		t := p.next()
		return &unary{base: base{t.pos}, Op: t.text, X: x, Postfix: true}, nil
	}
	return x, nil
}

func (p *parser) callMemberExpr() (Node, error) {
	var x Node
	var err error
	links := 0
	defer func() { p.depth -= links }()
	if p.atIdent("new") {
		t := p.next()
		callee, err := p.primary()
		if err != nil {
			return nil, err
		}
		// member chain before call parens
		for p.at(tPunct, ".") {
			if err := p.nest(); err != nil {
				return nil, err
			}
			links++
			p.next()
			name := p.cur()
			if name.kind != tIdent {
				return nil, p.errHere("expected property name")
			}
			p.next()
			callee = &member{base: base{name.pos}, Obj: callee, Name: name.text}
		}
		var args []Node
		if p.at(tPunct, "(") {
			args, err = p.callArgs()
			if err != nil {
				return nil, err
			}
		}
		x = &newExpr{base: base{t.pos}, Callee: callee, Args: args}
	} else {
		x, err = p.primary()
		if err != nil {
			return nil, err
		}
	}
	for {
		if p.at(tPunct, ".") || p.at(tPunct, "[") || p.at(tPunct, "(") {
			if err := p.nest(); err != nil {
				return nil, err
			}
			links++
		}
		switch {
		case p.at(tPunct, "."):
			p.next()
			name := p.cur()
			if name.kind != tIdent {
				return nil, p.errHere("expected property name after '.'")
			}
			p.next()
			x = &member{base: base{name.pos}, Obj: x, Name: name.text}
		case p.at(tPunct, "["):
			t := p.next()
			key, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tPunct, "]"); err != nil {
				return nil, err
			}
			x = &index{base: base{t.pos}, Obj: x, Key: key}
		case p.at(tPunct, "("):
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			x = &call{base: base{x.nodePos()}, Callee: x, Args: args}
		default:
			return x, nil
		}
	}
}

func (p *parser) callArgs() ([]Node, error) {
	if err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	var args []Node
	for !p.at(tPunct, ")") {
		a, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.eat(tPunct, ",") {
			break
		}
	}
	if err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) primary() (Node, error) {
	t := p.cur()
	switch t.kind {
	case tNum:
		p.next()
		return &numLit{base: base{t.pos}, Val: t.num}, nil
	case tStr:
		p.next()
		return &strLit{base: base{t.pos}, Val: t.text}, nil
	case tIdent:
		switch t.text {
		case "true", "false":
			p.next()
			return &boolLit{base: base{t.pos}, Val: t.text == "true"}, nil
		case "null":
			p.next()
			return &nullLit{base: base{t.pos}}, nil
		case "undefined":
			p.next()
			return &undefLit{base: base{t.pos}}, nil
		case "function":
			p.next()
			name := ""
			if p.cur().kind == tIdent && !jsKeywords[p.cur().text] {
				name = p.next().text
			}
			return p.functionRest(t.pos, name)
		}
		if jsKeywords[t.text] && t.text != "undefined" {
			return nil, p.errHere("unexpected keyword %q", t.text)
		}
		p.next()
		// Arrow function: ident => expr/block
		if p.at(tPunct, "=>") {
			return p.arrowRest(t.pos, []string{t.text})
		}
		return &ident{base: base{t.pos}, Name: t.text}, nil
	case tPunct:
		switch t.text {
		case "(":
			// Could be a parenthesized expression or arrow params.
			if params, ok := p.tryArrowParams(); ok {
				return p.arrowRest(t.pos, params)
			}
			p.next()
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			p.next()
			var elems []Node
			for !p.at(tPunct, "]") {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.eat(tPunct, ",") {
					break
				}
			}
			if err := p.expect(tPunct, "]"); err != nil {
				return nil, err
			}
			return &arrayLit{base: base{t.pos}, Elems: elems}, nil
		case "{":
			p.next()
			o := &objectLit{base: base{t.pos}}
			for !p.at(tPunct, "}") {
				kt := p.cur()
				var key string
				switch kt.kind {
				case tIdent, tStr:
					key = kt.text
				case tNum:
					key = jsToString(kt.num)
				default:
					return nil, p.errHere("expected object key")
				}
				p.next()
				if err := p.expect(tPunct, ":"); err != nil {
					return nil, err
				}
				v, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				o.Keys = append(o.Keys, key)
				o.Vals = append(o.Vals, v)
				if !p.eat(tPunct, ",") {
					break
				}
			}
			if err := p.expect(tPunct, "}"); err != nil {
				return nil, err
			}
			return o, nil
		}
	}
	return nil, p.errHere("unexpected token %q", t.text)
}

// tryArrowParams checks whether the upcoming "( ... )" is an arrow-function
// parameter list followed by "=>"; if so it consumes it and returns the names.
func (p *parser) tryArrowParams() ([]string, bool) {
	save := p.pos
	if !p.eat(tPunct, "(") {
		return nil, false
	}
	var params []string
	for !p.at(tPunct, ")") {
		t := p.cur()
		if t.kind != tIdent || jsKeywords[t.text] {
			p.pos = save
			return nil, false
		}
		p.next()
		params = append(params, t.text)
		if !p.eat(tPunct, ",") {
			break
		}
	}
	if !p.eat(tPunct, ")") || !p.at(tPunct, "=>") {
		p.pos = save
		return nil, false
	}
	return params, true
}

func (p *parser) arrowRest(pos int, params []string) (Node, error) {
	if err := p.expect(tPunct, "=>"); err != nil {
		return nil, err
	}
	if p.at(tPunct, "{") {
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &funcLit{base: base{pos}, Params: params, Body: body, Arrow: true}, nil
	}
	x, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	return &funcLit{base: base{pos}, Params: params, Body: []Node{&returnStmt{base: base{pos}, X: x}}, Arrow: true}, nil
}
