// Package cwlexpr dispatches CWL expressions to the right engine. It
// implements the three expression forms the integrated system supports:
//
//   - $(...) parameter references and expressions, resolved directly for
//     simple references (per the CWL spec these need no expression engine)
//     and through the JavaScript interpreter when
//     InlineJavascriptRequirement is set — or through the Python interpreter
//     when only InlinePythonRequirement is set (the paper's extension);
//   - ${...} function bodies, which are JavaScript per the CWL spec;
//   - f"..." call sites, the paper's InlinePythonRequirement form: a Python
//     f-string in which $(...) references are substituted before evaluation.
//
// One Engine wraps one process's requirements: expression libraries load
// once at construction, and every expression source compiles once into a
// bounded per-engine program cache. Engines are safe for concurrent use —
// evaluation runs on per-call interpreter state — and the package-level
// engine pool (SharedEngine) shares them across tool invocations with the
// same requirement set.
package cwlexpr

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cwl"
	"repro/internal/jsexpr"
	"repro/internal/pyexpr"
	"repro/internal/yamlx"
)

// Context carries the variables CWL exposes to expressions.
type Context struct {
	Inputs  *yamlx.Map
	Self    any
	Runtime *yamlx.Map
}

func (c Context) vars() map[string]any {
	vars := map[string]any{}
	if c.Inputs != nil {
		vars["inputs"] = c.Inputs
	} else {
		vars["inputs"] = yamlx.NewMap()
	}
	vars["self"] = c.Self
	if c.Runtime != nil {
		vars["runtime"] = c.Runtime
	} else {
		vars["runtime"] = yamlx.NewMap()
	}
	return vars
}

// Engine evaluates CWL expressions for one process. It is goroutine-safe:
// interpreters evaluate on per-call state and the program cache is
// internally locked.
type Engine struct {
	js *jsexpr.Interp
	py *pyexpr.Interp

	// progs caches compiled programs and interpolation splits by source text
	// (bounded LRU; compile errors are cached too).
	progs *lruCache
}

// NewEngine builds an engine for a process's (merged) requirements, loading
// any expression libraries. Most callers want SharedEngine, which pools
// engines by requirement set so libraries load once per set, not per task.
func NewEngine(reqs cwl.Requirements) (*Engine, error) {
	e := &Engine{progs: newProgramCache(DefaultProgramCacheCap)}
	if reqs.InlineJavascript {
		e.js = jsexpr.New()
		for i, lib := range reqs.JSExpressionLib {
			if err := e.js.LoadLib(lib); err != nil {
				return nil, fmt.Errorf("expressionLib[%d]: %w", i, err)
			}
		}
	}
	if reqs.InlinePython {
		e.py = pyexpr.New()
		for i, lib := range reqs.PyExpressionLib {
			if err := e.py.LoadLib(lib); err != nil {
				return nil, fmt.Errorf("python expressionLib[%d]: %w", i, err)
			}
		}
	}
	return e, nil
}

// jsExprProgram returns the cached compiled form of a $(...) body.
func (e *Engine) jsExprProgram(src string) (*jsexpr.Program, error) {
	v, err := e.progs.cached(kindJSExpr+src, func() (any, error) {
		return jsexpr.CompileExpr(src)
	})
	if err != nil {
		return nil, err
	}
	return v.(*jsexpr.Program), nil
}

// jsBodyProgram returns the cached compiled form of a ${...} body.
func (e *Engine) jsBodyProgram(src string) (*jsexpr.Program, error) {
	v, err := e.progs.cached(kindJSBody+src, func() (any, error) {
		return jsexpr.CompileBody(src)
	})
	if err != nil {
		return nil, err
	}
	return v.(*jsexpr.Program), nil
}

// pyExprProgram returns the cached compiled form of a Python expression.
func (e *Engine) pyExprProgram(src string) (*pyexpr.Program, error) {
	v, err := e.progs.cached(kindPyExpr+src, func() (any, error) {
		return pyexpr.CompileExpr(src)
	})
	if err != nil {
		return nil, err
	}
	return v.(*pyexpr.Program), nil
}

// segments returns the cached splitInterpolation result for a string. The
// returned slice is shared and must be treated as read-only.
func (e *Engine) segments(s string) ([]segment, error) {
	v, err := e.progs.cached(kindSegs+s, func() (any, error) {
		segs, err := splitInterpolation(s)
		return segs, err
	})
	if err != nil {
		return nil, err
	}
	return v.([]segment), nil
}

// HasPython reports whether the engine has a Python interpreter loaded.
func (e *Engine) HasPython() bool { return e.py != nil }

// HasJavaScript reports whether the engine has a JS interpreter loaded.
func (e *Engine) HasJavaScript() bool { return e.js != nil }

// Eval evaluates a CWL "Expression | string" field value:
// a lone $(...) yields the referenced value, a lone ${...} runs a JS body,
// an f-string (with InlinePython) evaluates as Python, and any other string
// has embedded $(...) segments interpolated.
func (e *Engine) Eval(src string, ctx Context) (any, error) {
	trimmed := strings.TrimSpace(src)
	if isFString(trimmed) {
		return e.evalFString(trimmed, ctx)
	}
	if strings.HasPrefix(trimmed, "${") && strings.HasSuffix(trimmed, "}") {
		return e.evalBody(trimmed[2:len(trimmed)-1], ctx)
	}
	segs, err := e.segments(src)
	if err != nil {
		return nil, err
	}
	if len(segs) == 1 && segs[0].isExpr && strings.TrimSpace(src) == src {
		return e.evalParen(segs[0].text, ctx)
	}
	var b strings.Builder
	for _, seg := range segs {
		if !seg.isExpr {
			b.WriteString(seg.text)
			continue
		}
		v, err := e.evalParen(seg.text, ctx)
		if err != nil {
			return nil, err
		}
		b.WriteString(ValueToString(v))
	}
	return b.String(), nil
}

// EvalToString evaluates and renders the result as a command-line string.
func (e *Engine) EvalToString(src string, ctx Context) (string, error) {
	v, err := e.Eval(src, ctx)
	if err != nil {
		return "", err
	}
	return ValueToString(v), nil
}

// NeedsEval reports whether a string contains any expression syntax.
func NeedsEval(s string) bool {
	return strings.Contains(s, "$(") || strings.Contains(s, "${") || isFString(strings.TrimSpace(s))
}

func isFString(s string) bool {
	return (strings.HasPrefix(s, `f"`) && strings.HasSuffix(s, `"`)) ||
		(strings.HasPrefix(s, "f'") && strings.HasSuffix(s, "'"))
}

// evalParen evaluates the inside of a $(...) segment.
func (e *Engine) evalParen(inner string, ctx Context) (any, error) {
	if v, ok, err := evalParamRef(inner, ctx); ok {
		return v, err
	}
	if e.js != nil {
		metJSEvals.Inc()
		p, err := e.jsExprProgram(inner)
		if err != nil {
			return nil, fmt.Errorf("in expression $(%s): %w", inner, err)
		}
		v, err := e.js.RunProgram(p, ctx.vars())
		if err != nil {
			return nil, fmt.Errorf("in expression $(%s): %w", inner, err)
		}
		return v, nil
	}
	if e.py != nil {
		// Extension: with only InlinePythonRequirement, $() bodies evaluate
		// as Python expressions with inputs/self/runtime in scope (dict
		// attribute access makes inputs.count work as users expect).
		metPyEvals.Inc()
		p, err := e.pyExprProgram(inner)
		if err != nil {
			return nil, fmt.Errorf("in expression $(%s): %w", inner, err)
		}
		v, err := e.py.RunProgram(p, ctx.vars())
		if err != nil {
			return nil, fmt.Errorf("in expression $(%s): %w", inner, err)
		}
		return v, nil
	}
	return nil, fmt.Errorf("expression $(%s) requires InlineJavascriptRequirement or InlinePythonRequirement", inner)
}

// evalBody evaluates a ${...} JavaScript function body.
func (e *Engine) evalBody(body string, ctx Context) (any, error) {
	if e.js == nil {
		return nil, fmt.Errorf("${...} expressions require InlineJavascriptRequirement")
	}
	metJSEvals.Inc()
	p, err := e.jsBodyProgram(body)
	if err != nil {
		return nil, fmt.Errorf("in expression ${%s}: %w", body, err)
	}
	v, err := e.js.RunProgram(p, ctx.vars())
	if err != nil {
		return nil, fmt.Errorf("in expression ${%s}: %w", body, err)
	}
	return v, nil
}

// evalFString evaluates the paper's f-string call-site form.
func (e *Engine) evalFString(src string, ctx Context) (any, error) {
	if e.py == nil {
		return nil, fmt.Errorf("f-string expressions require InlinePythonRequirement")
	}
	metPyEvals.Inc()
	// The rewrite substitutes per-call values into vars, but the rewritten
	// source text only depends on which $(...) refs resolved — caching the
	// compiled form by that text is safe and skips the re-parse.
	rewritten, vars := rewriteRefs(src, ctx)
	p, err := e.pyExprProgram(rewritten)
	if err != nil {
		return nil, fmt.Errorf("in expression %s: %w", src, err)
	}
	v, err := e.py.RunProgram(p, vars)
	if err != nil {
		return nil, fmt.Errorf("in expression %s: %w", src, err)
	}
	return v, nil
}

// rewriteRefs replaces $(ref) occurrences inside a Python expression with
// generated variable names bound to the referenced values. File objects are
// substituted as their path string, matching the paper's listings where
// $(inputs.data_file) flows into str-typed Python parameters.
func rewriteRefs(src string, ctx Context) (string, map[string]any) {
	vars := map[string]any{}
	var b strings.Builder
	i := 0
	n := 0
	for i < len(src) {
		if src[i] == '$' && i+1 < len(src) && src[i+1] == '(' {
			end := matchParen(src, i+1)
			if end > 0 {
				inner := src[i+2 : end]
				v, ok, err := evalParamRef(inner, ctx)
				if ok && err == nil {
					name := fmt.Sprintf("__cwl_ref_%d", n)
					n++
					vars[name] = fileToPath(v)
					b.WriteString(name)
					i = end + 1
					continue
				}
			}
		}
		b.WriteByte(src[i])
		i++
	}
	return b.String(), vars
}

// fileToPath converts CWL File/Directory objects to their path for Python
// consumption; everything else passes through.
func fileToPath(v any) any {
	if m, ok := v.(*yamlx.Map); ok {
		cls := m.GetString("class")
		if cls == "File" || cls == "Directory" {
			if p := m.GetString("path"); p != "" {
				return p
			}
			if p := m.GetString("location"); p != "" {
				return p
			}
		}
	}
	return v
}

// matchParen returns the index of the ')' matching the '(' at src[open],
// respecting nesting and quotes; -1 if unbalanced.
func matchParen(src string, open int) int {
	depth := 0
	for i := open; i < len(src); i++ {
		switch src[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		case '\'', '"':
			q := src[i]
			i++
			for i < len(src) && src[i] != q {
				if src[i] == '\\' {
					i++
				}
				i++
			}
		}
	}
	return -1
}

type segment struct {
	text   string
	isExpr bool
}

// splitInterpolation splits a string into literal and $(...) segments.
// "$$(" escapes a literal "$(".
func splitInterpolation(s string) ([]segment, error) {
	var segs []segment
	var lit strings.Builder
	i := 0
	for i < len(s) {
		if s[i] == '\\' && i+2 < len(s) && s[i+1] == '$' && s[i+2] == '(' {
			lit.WriteString("$(")
			i += 3
			continue
		}
		if s[i] == '$' && i+1 < len(s) && s[i+1] == '(' {
			end := matchParen(s, i+1)
			if end < 0 {
				return nil, fmt.Errorf("unbalanced $( in %q", s)
			}
			if lit.Len() > 0 {
				segs = append(segs, segment{text: lit.String()})
				lit.Reset()
			}
			segs = append(segs, segment{text: s[i+2 : end], isExpr: true})
			i = end + 1
			continue
		}
		lit.WriteByte(s[i])
		i++
	}
	if lit.Len() > 0 || len(segs) == 0 {
		segs = append(segs, segment{text: lit.String()})
	}
	return segs, nil
}

// evalParamRef resolves simple parameter references like inputs.message,
// inputs.file.basename, inputs["with space"], self[0].path, runtime.cores.
// ok=false means the text is not a simple reference (needs an engine).
func evalParamRef(expr string, ctx Context) (any, bool, error) {
	expr = strings.TrimSpace(expr)
	toks, ok := tokenizeRef(expr)
	if !ok {
		return nil, false, nil
	}
	var cur any
	switch toks[0] {
	case "inputs":
		cur = ctx.Inputs
		if cur == (*yamlx.Map)(nil) {
			cur = yamlx.NewMap()
		}
	case "self":
		cur = ctx.Self
	case "runtime":
		cur = ctx.Runtime
		if cur == (*yamlx.Map)(nil) {
			cur = yamlx.NewMap()
		}
	default:
		return nil, false, nil
	}
	for _, t := range toks[1:] {
		switch c := cur.(type) {
		case *yamlx.Map:
			v, has := c.Get(t)
			if !has {
				// Derived File attributes.
				if dv, ok := derivedFileAttr(c, t); ok {
					cur = dv
					continue
				}
				cur = nil
				continue
			}
			cur = v
		case []any:
			if t == "length" {
				cur = int64(len(c))
				continue
			}
			idx, err := strconv.Atoi(t)
			if err != nil {
				return nil, true, fmt.Errorf("cannot index array with %q in $(%s)", t, expr)
			}
			if idx < 0 || idx >= len(c) {
				return nil, true, fmt.Errorf("index %d out of range in $(%s)", idx, expr)
			}
			cur = c[idx]
		case nil:
			return nil, true, fmt.Errorf("cannot access %q of null in $(%s)", t, expr)
		default:
			return nil, true, fmt.Errorf("cannot access %q of %T in $(%s)", t, cur, expr)
		}
	}
	return cur, true, nil
}

// derivedFileAttr computes basename/nameroot/nameext/dirname for File objects
// that carry only a path.
func derivedFileAttr(m *yamlx.Map, attr string) (any, bool) {
	cls := m.GetString("class")
	if cls != "File" && cls != "Directory" {
		return nil, false
	}
	path := m.GetString("path")
	if path == "" {
		path = m.GetString("location")
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	switch attr {
	case "basename":
		return base, true
	case "dirname":
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			return path[:i], true
		}
		return "", true
	case "nameroot":
		if i := strings.LastIndexByte(base, '.'); i > 0 {
			return base[:i], true
		}
		return base, true
	case "nameext":
		if i := strings.LastIndexByte(base, '.'); i > 0 {
			return base[i:], true
		}
		return "", true
	}
	return nil, false
}

// tokenizeRef splits "inputs.file.basename" / `inputs["x"]` / "self[0]" into
// access tokens. ok=false when the text is more than a simple reference.
func tokenizeRef(s string) ([]string, bool) {
	var toks []string
	i := 0
	readIdent := func() (string, bool) {
		start := i
		for i < len(s) && (isAlnum(s[i]) || s[i] == '_') {
			i++
		}
		if i == start {
			return "", false
		}
		return s[start:i], true
	}
	id, ok := readIdent()
	if !ok {
		return nil, false
	}
	toks = append(toks, id)
	for i < len(s) {
		switch s[i] {
		case '.':
			i++
			id, ok := readIdent()
			if !ok {
				return nil, false
			}
			toks = append(toks, id)
		case '[':
			i++
			if i >= len(s) {
				return nil, false
			}
			if s[i] == '\'' || s[i] == '"' {
				q := s[i]
				i++
				start := i
				for i < len(s) && s[i] != q {
					i++
				}
				if i >= len(s) {
					return nil, false
				}
				toks = append(toks, s[start:i])
				i++ // quote
			} else {
				start := i
				for i < len(s) && s[i] >= '0' && s[i] <= '9' {
					i++
				}
				if i == start {
					return nil, false
				}
				toks = append(toks, s[start:i])
			}
			if i >= len(s) || s[i] != ']' {
				return nil, false
			}
			i++
		default:
			return nil, false
		}
	}
	return toks, true
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// ValueToString renders a CWL value for command-line/interpolation use:
// File objects become their path, collections render as JSON.
func ValueToString(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(x, 10)
	case int:
		return strconv.Itoa(x)
	case float64:
		if x == float64(int64(x)) {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case *yamlx.Map:
		if p := fileToPath(x); p != any(x) {
			if s, ok := p.(string); ok {
				return s
			}
		}
		b, err := json.Marshal(x)
		if err != nil {
			return fmt.Sprint(v)
		}
		return string(b)
	case []any:
		b, err := json.Marshal(x)
		if err != nil {
			return fmt.Sprint(v)
		}
		return string(b)
	default:
		return fmt.Sprint(v)
	}
}

// RunValidate evaluates an input's validate: f-string (the paper's Listing 6
// extension). A Python exception is returned as the validation error.
func (e *Engine) RunValidate(validateExpr string, ctx Context) error {
	if strings.TrimSpace(validateExpr) == "" {
		return nil
	}
	if e.py == nil {
		return fmt.Errorf("validate: requires InlinePythonRequirement")
	}
	_, err := e.evalFString(strings.TrimSpace(validateExpr), ctx)
	if err != nil {
		if raised, ok := errRaised(err); ok {
			return fmt.Errorf("input validation failed: %s", raised)
		}
		return err
	}
	return nil
}

func errRaised(err error) (string, bool) {
	var r *pyexpr.Raised
	if errors.As(err, &r) {
		return r.Exc.String(), true
	}
	return "", false
}
