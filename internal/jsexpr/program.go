package jsexpr

import "repro/internal/exprcore"

// Program is a reusable, goroutine-safe compiled JavaScript fragment. The AST
// is immutable after Compile; evaluation never mutates it.
type Program struct {
	expr  Node   // set for expression programs ($(...) bodies)
	stmts []Node // set for statement programs (${...} bodies, libraries)
}

// CompileExpr parses a single JavaScript expression (the inside of $(...))
// into a reusable Program.
func CompileExpr(src string) (*Program, error) {
	node, err := parseExpression(src)
	if err != nil {
		return nil, err
	}
	return &Program{expr: node}, nil
}

// CompileBody parses a ${...} function body (statements that should return a
// value) into a reusable Program.
func CompileBody(src string) (*Program, error) {
	stmts, err := parseProgram(src)
	if err != nil {
		return nil, err
	}
	return &Program{stmts: stmts}, nil
}

// RunProgram evaluates a compiled program with the given variables in scope,
// returning a CWL document value. It is safe to call concurrently: each call
// evaluates on a fresh per-call evaluator holding its own step meter and
// scope, and writes that would create or mutate global bindings land in the
// per-call scope instead, so evaluations cannot observe each other.
func (ip *Interp) RunProgram(p *Program, vars map[string]any) (any, error) {
	ip.lib.Begin()
	defer ip.lib.End()
	ev := &Interp{meter: exprcore.NewMeter(&jsLang, ip.maxSteps)}
	env := ip.lib.CallScope(vars, ToJS)
	if p.expr != nil {
		v, err := ev.eval(p.expr, env)
		if err != nil {
			return nil, err
		}
		return FromJS(v), nil
	}
	ret, err := ev.execStmts(p.stmts, env)
	if err != nil || ret == nil {
		return nil, err
	}
	return FromJS(ret.Value), nil
}
