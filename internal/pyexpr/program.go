package pyexpr

// Compile-once / evaluate-many support, mirroring jsexpr: a Program is a
// parsed expression or statement block that can be evaluated repeatedly —
// and concurrently — against one Interp. Per-evaluation interpreter state
// (the step counter and the variable scope) lives in a per-call evaluator.

// Program is a reusable, goroutine-safe compiled Python fragment. The AST is
// immutable after Compile; evaluation never mutates it.
type Program struct {
	expr  expr
	stmts []stmt
}

// CompileExpr parses a single Python expression into a reusable Program.
func CompileExpr(src string) (*Program, error) {
	node, err := parsePyExpression(src)
	if err != nil {
		return nil, err
	}
	return &Program{expr: node}, nil
}

// CompileBody parses a statement block into a reusable Program; evaluation
// returns the value of a top-level return (or None).
func CompileBody(src string) (*Program, error) {
	stmts, err := parsePyProgram(src)
	if err != nil {
		return nil, err
	}
	return &Program{stmts: stmts}, nil
}

// RunProgram evaluates a compiled program with the given variables in scope,
// returning a CWL document value. Safe to call concurrently: the global
// scope is sealed on first use and each call runs on a fresh per-call
// evaluator holding its own step counter and scope. Interpreters whose
// library holds in-place-mutable state serialize their evaluations instead
// (see Interp).
func (ip *Interp) RunProgram(p *Program, vars map[string]any) (any, error) {
	v, err := ip.run(p, vars)
	if err != nil {
		return nil, err
	}
	return fromPy(v), nil
}

// run evaluates p and returns its Python value: the expression's value, or
// a body's top-level return value (None without one).
func (ip *Interp) run(p *Program, vars map[string]any) (any, error) {
	ip.seal()
	if ip.serialize {
		ip.evalMu.Lock()
		defer ip.evalMu.Unlock()
	}
	ev := &Interp{global: ip.global, maxSteps: ip.maxSteps}
	env := ev.scopeWith(vars)
	if p.expr != nil {
		return ev.eval(p.expr, env)
	}
	c, err := ev.execStmts(p.stmts, env)
	if err != nil || c == nil || c.kind != ctrlReturn {
		return nil, err
	}
	return c.value, nil
}

// seal freezes the global scope and decides whether mutable library state
// forces serialized evaluation; see the jsexpr counterpart.
func (ip *Interp) seal() {
	ip.sealOnce.Do(func() {
		ip.global.frozen = true
		ip.serialize = ip.libHasMutableState()
	})
}

// libHasMutableState reports whether any library-defined global carries
// state an expression could mutate in place: lists, dicts, tuples
// containing them, functions with mutable defaults, or functions over a
// captured (non-global) scope.
func (ip *Interp) libHasMutableState() bool {
	for k, v := range ip.global.vars {
		if bv, ok := ip.builtinVals[k]; ok && bv == v {
			continue
		}
		if pyMutable(ip, v, 0) {
			return true
		}
	}
	return false
}

func pyMutable(ip *Interp, v any, depth int) bool {
	if depth > 8 {
		return true // deep enough to stop looking; be conservative
	}
	switch x := v.(type) {
	case *List, *Dict:
		return true
	case *Tuple:
		for _, e := range x.E {
			if pyMutable(ip, e, depth+1) {
				return true
			}
		}
		return false
	case *PyFunc:
		if x.env != ip.global {
			return true
		}
		for _, d := range x.Defaults {
			if pyMutable(ip, d, depth+1) {
				return true
			}
		}
		return false
	}
	return false
}
