package pyexpr

import "repro/internal/exprcore"

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
// returning a CWL document value. Safe to call concurrently: each call runs
// on a fresh per-call evaluator holding its own step meter and scope.
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
	ip.lib.Begin()
	defer ip.lib.End()
	ev := &Interp{meter: exprcore.NewMeter(&pyLang, ip.maxSteps)}
	env := ip.lib.CallScope(vars, toPy)
	if p.expr != nil {
		return ev.eval(p.expr, env)
	}
	c, err := ev.execStmts(p.stmts, env)
	if err != nil || c == nil || c.Kind != exprcore.Return {
		return nil, err
	}
	return c.Value, nil
}

// pyMutable reports whether a library-defined global carries state an
// expression could mutate in place: lists, dicts, tuples containing them,
// functions with mutable defaults, or functions over a captured
// (non-global) scope.
func pyMutable(global *exprcore.Scope, v any, depth int) bool {
	if depth > 8 {
		return true // deep enough to stop looking; be conservative
	}
	switch x := v.(type) {
	case *List, *Dict:
		return true
	case *Tuple:
		for _, e := range x.E {
			if pyMutable(global, e, depth+1) {
				return true
			}
		}
		return false
	case *PyFunc:
		if x.env != global {
			return true
		}
		for _, d := range x.Defaults {
			if pyMutable(global, d, depth+1) {
				return true
			}
		}
		return false
	}
	return false
}
