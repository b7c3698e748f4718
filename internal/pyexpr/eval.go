package pyexpr

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/exprcore"
	"repro/internal/yamlx"
)

// List is a mutable Python list.
type List struct{ E []any }

// Tuple is an immutable Python tuple.
type Tuple struct{ E []any }

// Dict is a Python dict with insertion-ordered str keys: the CWL document's
// map type, so inputs and outputs cross the boundary unchanged.
type Dict = yamlx.Map

// Exception is a Python exception value.
type Exception struct {
	Type string // class name, e.g. "Exception", "ValueError"
	Msg  string
}

func (e *Exception) String() string {
	if e.Msg == "" {
		return e.Type
	}
	return e.Type + ": " + e.Msg
}

// Raised is the Go error wrapping a raised Python exception.
type Raised struct{ Exc *Exception }

func (r *Raised) Error() string { return "python exception: " + r.Exc.String() }

func raisef(typ, format string, args ...any) error {
	return &Raised{Exc: &Exception{Type: typ, Msg: fmt.Sprintf(format, args...)}}
}

// PyFunc is a user-defined function.
type PyFunc struct {
	Name     string
	Params   []string
	Defaults []any // evaluated at def time, aligned to tail of Params
	Body     []stmt
	env      *exprcore.Scope
}

// Builtin is a native function exposed to Python code.
type Builtin struct {
	Name string
	Fn   func(args []any, kw map[string]any) (any, error)
}

// rangeVal is the lazy result of range().
type rangeVal struct{ start, stop, step int64 }

// length counts the range's items. The differences below can exceed
// int64, so they are taken modulo 2^64 and read as unsigned, which is exact.
func (r rangeVal) length() uint64 {
	switch {
	case r.step > 0 && r.start < r.stop:
		return (uint64(r.stop-r.start)-1)/uint64(r.step) + 1
	case r.step < 0 && r.start > r.stop:
		return (uint64(r.start-r.stop)-1)/uint64(-r.step) + 1
	}
	return 0
}

// contains reports whether n is one of the range's items.
func (r rangeVal) contains(n int64) bool {
	if r.step > 0 {
		return n >= r.start && n < r.stop && uint64(n-r.start)%uint64(r.step) == 0
	}
	return n <= r.start && n > r.stop && uint64(r.start-n)%uint64(-r.step) == 0
}

// Interp is a Python interpreter instance holding the loaded expression
// library. Load libraries first (LoadLib), then evaluate: the first
// evaluation seals the global scope, after which one Interp may evaluate
// compiled Programs from many goroutines concurrently (see exprcore.Globals
// for when evaluations take turns instead).
type Interp struct {
	lib      *exprcore.Globals
	meter    exprcore.Meter
	maxSteps int // the step budget of each evaluation
}

var pyLang = exprcore.Lang{Name: "python", Pos: "line"}

// New creates an interpreter with builtins installed.
func New() *Interp {
	g := exprcore.NewScope(nil)
	installPyBuiltins(g)
	return &Interp{lib: exprcore.NewGlobals(g, func(v any) bool { return pyMutable(g, v, 0) }), maxSteps: exprcore.MaxSteps}
}

// LoadLib executes expressionLib source (def statements, constants) in the
// global scope. All libraries must load before the first evaluation:
// evaluating seals the global scope for concurrent use.
func (ip *Interp) LoadLib(src string) error {
	if err := ip.lib.Loadable(); err != nil {
		return fmt.Errorf("pyexpr: %w", err)
	}
	prog, err := parsePyProgram(src)
	if err != nil {
		return err
	}
	ip.meter = exprcore.NewMeter(&pyLang, ip.maxSteps)
	_, err = ip.execStmts(prog, ip.lib.Scope)
	return err
}

func (ip *Interp) execStmts(stmts []stmt, env *exprcore.Scope) (*exprcore.Ctrl, error) {
	for _, s := range stmts {
		c, err := ip.exec(s, env)
		if err != nil || c != nil {
			return c, err
		}
	}
	return nil, nil
}

func (ip *Interp) exec(s stmt, env *exprcore.Scope) (*exprcore.Ctrl, error) {
	if err := ip.meter.Tick(s.stmtLine()); err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case *exprStatement:
		_, err := ip.eval(st.X, env)
		return nil, err
	case *jumpStmt:
		switch st.Word {
		case "break":
			return &exprcore.Ctrl{Kind: exprcore.Break}, nil
		case "continue":
			return &exprcore.Ctrl{Kind: exprcore.Continue}, nil
		}
		return nil, nil
	case *assignStmt:
		val, err := ip.eval(st.Value, env)
		if err != nil {
			return nil, err
		}
		if st.Op != "=" {
			old, err := ip.eval(st.Target, env)
			if err != nil {
				return nil, err
			}
			val, err = pyBinOp(strings.TrimSuffix(st.Op, "="), old, val, st.Line)
			if err != nil {
				return nil, err
			}
		}
		return nil, ip.assignTo(st.Target, val, env)
	case *returnStatement:
		var v any
		if st.X != nil {
			var err error
			v, err = ip.eval(st.X, env)
			if err != nil {
				return nil, err
			}
		}
		return &exprcore.Ctrl{Kind: exprcore.Return, Value: v}, nil
	case *raiseStmt:
		if st.X == nil {
			return nil, raisef("RuntimeError", "no active exception to re-raise")
		}
		v, err := ip.eval(st.X, env)
		if err != nil {
			return nil, err
		}
		switch exc := v.(type) {
		case *Exception:
			return nil, &Raised{Exc: exc}
		case *Builtin:
			if exceptionTypes[exc.Name] {
				// raise ValueError  (class without call)
				return nil, &Raised{Exc: &Exception{Type: exc.Name}}
			}
		}
		return nil, raisef("TypeError", "exceptions must derive from BaseException")
	case *ifStatement:
		t, err := ip.eval(st.Test, env)
		if err != nil {
			return nil, err
		}
		if pyTruthy(t) {
			return ip.execStmts(st.Then, env)
		}
		return ip.execStmts(st.Else, env)
	case *forStatement:
		iter, err := ip.eval(st.Iter, env)
		if err != nil {
			return nil, err
		}
		var out *exprcore.Ctrl
		err = ip.each(iter, st.Line, func(item any) (bool, error) {
			if err := bindLoopVars(env, st.Vars, item, st.Line); err != nil {
				return false, err
			}
			c, err := ip.execStmts(st.Body, env)
			if err != nil || c == nil || c.Kind == exprcore.Continue {
				return err == nil, err
			}
			if c.Kind == exprcore.Return {
				out = c
			}
			return false, nil
		})
		return out, err
	case *defStatement:
		defaults := make([]any, len(st.Defaults))
		for i, d := range st.Defaults {
			v, err := ip.eval(d, env)
			if err != nil {
				return nil, err
			}
			defaults[i] = v
		}
		env.Vars[st.Name] = &PyFunc{
			Name: st.Name, Params: st.Params, Defaults: defaults,
			Body: st.Body, env: env,
		}
		return nil, nil
	}
	return nil, fmt.Errorf("unsupported statement %T", s)
}

func bindLoopVars(env *exprcore.Scope, vars []string, item any, line int) error {
	if len(vars) == 1 {
		env.Define(vars[0], item)
		return nil
	}
	elems, ok := sequenceOf(item)
	if !ok {
		return raisef("TypeError", "cannot unpack non-sequence (line %d)", line)
	}
	if len(elems) != len(vars) {
		return raisef("ValueError", "expected %d values to unpack, got %d (line %d)", len(vars), len(elems), line)
	}
	for i, name := range vars {
		env.Define(name, elems[i])
	}
	return nil
}

func sequenceOf(v any) ([]any, bool) {
	switch x := v.(type) {
	case *List:
		return x.E, true
	case *Tuple:
		return x.E, true
	}
	return nil, false
}

// each calls fn with each item of v, charging one step per item; fn
// returning false stops the iteration. A range is walked lazily, so the
// step budget, not memory, bounds a loop over a huge one.
func (ip *Interp) each(v any, line int, fn func(item any) (bool, error)) error {
	r, lazy := v.(rangeVal)
	n, item := r.length(), func(i uint64) any { return r.start + int64(i)*r.step }
	if !lazy {
		items, err := iterValues(v, line)
		if err != nil {
			return err
		}
		n, item = uint64(len(items)), func(i uint64) any { return items[i] }
	}
	for i := uint64(0); i < n; i++ {
		if err := ip.meter.Tick(line); err != nil {
			return err
		}
		if more, err := fn(item(i)); err != nil || !more {
			return err
		}
	}
	return nil
}

// maxMaterialized bounds how many items a builtin may build from a range.
const maxMaterialized = 50_000_000

// iterValues returns the items v iterates over, as a fresh slice.
func iterValues(v any, line int) ([]any, error) {
	switch x := v.(type) {
	case *List:
		return append([]any{}, x.E...), nil
	case *Tuple:
		return append([]any{}, x.E...), nil
	case string:
		out := make([]any, 0, len(x))
		for _, r := range x {
			out = append(out, string(r))
		}
		return out, nil
	case *Dict:
		out := make([]any, 0, x.Len())
		for _, k := range x.Keys() {
			out = append(out, k)
		}
		return out, nil
	case rangeVal:
		n := x.length()
		if n > maxMaterialized {
			return nil, raisef("OverflowError", "range too large (line %d)", line)
		}
		out := make([]any, n)
		for i := range out {
			out[i] = x.start + int64(i)*x.step
		}
		return out, nil
	}
	return nil, raisef("TypeError", "'%s' object is not iterable (line %d)", pyTypeName(v), line)
}

func (ip *Interp) assignTo(target expr, val any, env *exprcore.Scope) error {
	switch t := target.(type) {
	case *nameRef:
		// Without global or nonlocal, Python assignment binds in the current
		// scope: enclosing ones, the sealed globals among them, are never
		// written.
		env.Define(t.Name, val)
		return nil
	case *subscript:
		obj, err := ip.eval(t.Obj, env)
		if err != nil {
			return err
		}
		key, err := ip.eval(t.Key, env)
		if err != nil {
			return err
		}
		switch o := obj.(type) {
		case *List:
			i, ok := key.(int64)
			if !ok {
				return raisef("TypeError", "list indices must be integers")
			}
			idx, err := normIndex(i, len(o.E))
			if err != nil {
				return err
			}
			o.E[idx] = val
			return nil
		case *Dict:
			ks, err := dictKey(key)
			if err != nil {
				return err
			}
			o.Set(ks, val)
			return nil
		}
		return raisef("TypeError", "'%s' object does not support item assignment", pyTypeName(obj))
	}
	return fmt.Errorf("invalid assignment target %T", target)
}

func normIndex(i int64, n int) (int, error) {
	if i < 0 {
		i += int64(n)
	}
	if i < 0 || i >= int64(n) {
		return 0, raisef("IndexError", "index out of range")
	}
	return int(i), nil
}

// dictKey returns key as a Dict key. Dicts are the CWL document's
// string-keyed maps, so storing any other key is a TypeError; a lookup by a
// non-str key finds nothing.
func dictKey(key any) (string, error) {
	if k, ok := key.(string); ok {
		return k, nil
	}
	return "", raisef("TypeError", "dict keys must be str in the inline-Python subset, not '%s'", pyTypeName(key))
}

func (ip *Interp) eval(e expr, env *exprcore.Scope) (any, error) {
	if err := ip.meter.Tick(e.exprLine()); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *intLit:
		return x.V, nil
	case *floatLit:
		return x.V, nil
	case *strLit:
		return x.V, nil
	case *boolLit:
		return x.V, nil
	case *noneLit:
		return nil, nil
	case *nameRef:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		return nil, raisef("NameError", "name '%s' is not defined (line %d)", x.Name, x.Line)
	case *fstrLit:
		var b strings.Builder
		for _, part := range x.Parts {
			if part.Expr == nil {
				b.WriteString(part.Text)
				continue
			}
			v, err := ip.eval(part.Expr, env)
			if err != nil {
				return nil, err
			}
			switch part.Conv {
			case 'r':
				v = pyRepr(v)
			case 's':
				v = pyStr(v)
			}
			s, err := formatValue(v, part.Spec)
			if err != nil {
				return nil, err
			}
			b.WriteString(s)
		}
		return b.String(), nil
	case *listLit:
		elems, err := ip.evalAll(x.Elems, env)
		return &List{E: elems}, err
	case *tupleLit:
		elems, err := ip.evalAll(x.Elems, env)
		return &Tuple{E: elems}, err
	case *dictLit:
		d := yamlx.NewMap()
		for i := range x.Keys {
			k, err := ip.eval(x.Keys[i], env)
			if err != nil {
				return nil, err
			}
			v, err := ip.eval(x.Vals[i], env)
			if err != nil {
				return nil, err
			}
			ks, err := dictKey(k)
			if err != nil {
				return nil, err
			}
			d.Set(ks, v)
		}
		return d, nil
	case *attrRef:
		obj, err := ip.eval(x.Obj, env)
		if err != nil {
			return nil, err
		}
		return getAttr(obj, x.Name, x.Line)
	case *subscript:
		obj, err := ip.eval(x.Obj, env)
		if err != nil {
			return nil, err
		}
		key, err := ip.eval(x.Key, env)
		if err != nil {
			return nil, err
		}
		return pyGetItem(obj, key, x.Line)
	case *sliceExpr:
		return ip.evalSlice(x, env)
	case *callExpr:
		fn, err := ip.eval(x.Fn, env)
		if err != nil {
			return nil, err
		}
		args, err := ip.evalAll(x.Args, env)
		if err != nil {
			return nil, err
		}
		var kw map[string]any
		if len(x.KwName) > 0 {
			kw = map[string]any{}
			for i, name := range x.KwName {
				v, err := ip.eval(x.KwVal[i], env)
				if err != nil {
					return nil, err
				}
				kw[name] = v
			}
		}
		return ip.call(fn, args, kw, x.Line)
	case *unaryOp:
		v, err := ip.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		if x.Op == "not" {
			return !pyTruthy(v), nil
		}
		switch n := boolToInt(v).(type) {
		case int64:
			if x.Op == "+" {
				return n, nil
			}
			if n == math.MinInt64 {
				return nil, errOverflow(x.Line)
			}
			return -n, nil
		case float64:
			if x.Op == "+" {
				return n, nil
			}
			return -n, nil
		}
		return nil, raisef("TypeError", "bad operand type for unary %s: '%s'", x.Op, pyTypeName(v))
	case *binOp:
		l, err := ip.eval(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := ip.eval(x.R, env)
		if err != nil {
			return nil, err
		}
		return pyBinOp(x.Op, l, r, x.Line)
	case *boolOp:
		l, err := ip.eval(x.L, env)
		if err != nil {
			return nil, err
		}
		if pyTruthy(l) == (x.Op == "or") {
			return l, nil
		}
		return ip.eval(x.R, env)
	case *compare:
		left, err := ip.eval(x.First, env)
		if err != nil {
			return nil, err
		}
		for i, op := range x.Ops {
			right, err := ip.eval(x.Rest[i], env)
			if err != nil {
				return nil, err
			}
			ok, err := pyCompare(op, left, right, x.Line)
			if err != nil || !ok {
				return false, err
			}
			left = right
		}
		return true, nil
	case *ternary:
		t, err := ip.eval(x.Test, env)
		if err != nil {
			return nil, err
		}
		if pyTruthy(t) {
			return ip.eval(x.Then, env)
		}
		return ip.eval(x.Else, env)
	case *listComp:
		iter, err := ip.eval(x.Iter, env)
		if err != nil {
			return nil, err
		}
		out := &List{}
		compEnv := exprcore.NewScope(env)
		err = ip.each(iter, x.Line, func(item any) (bool, error) {
			if err := bindLoopVars(compEnv, x.Vars, item, x.Line); err != nil {
				return false, err
			}
			if x.Cond != nil {
				c, err := ip.eval(x.Cond, compEnv)
				if err != nil || !pyTruthy(c) {
					return err == nil, err
				}
			}
			v, err := ip.eval(x.Out, compEnv)
			out.E = append(out.E, v)
			return err == nil, err
		})
		return out, err
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func (ip *Interp) evalAll(exprs []expr, env *exprcore.Scope) ([]any, error) {
	out := make([]any, 0, len(exprs))
	for _, e := range exprs {
		v, err := ip.eval(e, env)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// evalSlice evaluates obj[low:high:step] over a str, list or tuple.
func (ip *Interp) evalSlice(x *sliceExpr, env *exprcore.Scope) (any, error) {
	obj, err := ip.eval(x.Obj, env)
	if err != nil {
		return nil, err
	}
	var bounds [3]*int64
	for i, e := range []expr{x.Low, x.High, x.Step_} {
		if e == nil {
			continue
		}
		v, err := ip.eval(e, env)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		n, ok := boolToInt(v).(int64)
		if !ok {
			return nil, raisef("TypeError", "slice indices must be integers or None (line %d)", x.Line)
		}
		bounds[i] = &n
	}
	var elems []any
	switch o := obj.(type) {
	case string:
		for _, r := range o {
			elems = append(elems, string(r))
		}
	case *List:
		elems = o.E
	case *Tuple:
		elems = o.E
	default:
		return nil, raisef("TypeError", "'%s' object is not subscriptable (line %d)", pyTypeName(obj), x.Line)
	}
	out, err := sliceItems(elems, bounds[0], bounds[1], bounds[2])
	if err != nil {
		return nil, err
	}
	switch obj.(type) {
	case string:
		var b strings.Builder
		for _, s := range out {
			b.WriteString(s.(string))
		}
		return b.String(), nil
	case *List:
		return &List{E: out}, nil
	}
	return &Tuple{E: out}, nil
}

// sliceItems applies CPython's slice rules: missing bounds default by the
// step's sign, negative bounds count from the end, and out-of-range bounds
// clamp.
func sliceItems(elems []any, low, high, stepp *int64) ([]any, error) {
	n := int64(len(elems))
	step := int64(1)
	if stepp != nil {
		step = *stepp
	}
	if step == 0 {
		return nil, raisef("ValueError", "slice step cannot be zero")
	}
	back := int64(0) // where a backward slice's clamped bounds land
	if step < 0 {
		back = -1
	}
	adjust := func(b *int64, def int64) int64 {
		if b == nil {
			return def
		}
		switch i := *b; {
		case i < 0 && i+n < 0:
			return back
		case i < 0:
			return i + n
		case i >= n:
			return n + back
		default:
			return i
		}
	}
	var start, stop int64
	var count uint64
	if step > 0 {
		start, stop = adjust(low, 0), adjust(high, n)
		if start < stop {
			count = (uint64(stop-start)-1)/uint64(step) + 1
		}
	} else {
		start, stop = adjust(low, n-1), adjust(high, -1)
		if start > stop {
			count = (uint64(start-stop)-1)/uint64(-step) + 1
		}
	}
	out := make([]any, 0, count)
	for i, k := start, uint64(0); k < count; i, k = i+step, k+1 {
		out = append(out, elems[i])
	}
	return out, nil
}

// errOverflow is the OverflowError of int arithmetic leaving 64 bits.
func errOverflow(line int) error {
	return raisef("OverflowError", "int result does not fit in 64 bits (line %d)", line)
}

func (ip *Interp) call(fn any, args []any, kw map[string]any, line int) (any, error) {
	switch f := fn.(type) {
	case *PyFunc:
		fnEnv := exprcore.NewScope(f.env)
		nParams := len(f.Params)
		firstDefault := nParams - len(f.Defaults)
		if len(args) > nParams {
			return nil, raisef("TypeError", "%s() takes %d arguments but %d were given", f.Name, nParams, len(args))
		}
		for i, p := range f.Params {
			v, ok := kw[p]
			switch {
			case i < len(args):
				if ok {
					return nil, raisef("TypeError", "%s() got multiple values for argument '%s'", f.Name, p)
				}
				v = args[i]
			case ok:
			case i >= firstDefault:
				v = f.Defaults[i-firstDefault]
			default:
				return nil, raisef("TypeError", "%s() missing required argument: '%s'", f.Name, p)
			}
			fnEnv.Vars[p] = v
		}
		for k := range kw {
			if !slices.Contains(f.Params, k) {
				return nil, raisef("TypeError", "%s() got an unexpected keyword argument '%s'", f.Name, k)
			}
		}
		if ip.meter.Call() != nil {
			return nil, raisef("RecursionError", "maximum recursion depth exceeded (line %d)", line)
		}
		c, err := ip.execStmts(f.Body, fnEnv)
		ip.meter.Return()
		if err != nil {
			return nil, err
		}
		if c != nil && c.Kind == exprcore.Return {
			return c.Value, nil
		}
		return nil, nil
	case *Builtin:
		return f.Fn(args, kw)
	case *boundPyMethod:
		if len(kw) > 0 {
			return nil, raisef("TypeError", "%s() takes no keyword arguments", f.name)
		}
		return f.fn(f.recv, args)
	}
	return nil, raisef("TypeError", "'%s' object is not callable (line %d)", pyTypeName(fn), line)
}

type boundPyMethod struct {
	name string
	recv any
	fn   pyMethod
}

// pyTypeName returns the Python type name for error messages.
func pyTypeName(v any) string {
	switch x := v.(type) {
	case nil:
		return "NoneType"
	case bool:
		return "bool"
	case int64:
		return "int"
	case float64:
		return "float"
	case string:
		return "str"
	case *List:
		return "list"
	case *Tuple:
		return "tuple"
	case *Dict:
		return "dict"
	case *PyFunc, *Builtin, *boundPyMethod:
		return "function"
	case *Exception:
		return x.Type
	case rangeVal:
		return "range"
	}
	return fmt.Sprintf("%T", v)
}

func pyTruthy(v any) bool {
	switch x := boolToInt(v).(type) {
	case nil:
		return false
	case int64:
		return x != 0
	case float64:
		return x != 0
	}
	n, sized := pyLen(v)
	return !sized || n > 0
}

// pyLen is len(v) for a str, list, tuple, dict or range.
func pyLen(v any) (uint64, bool) {
	switch x := v.(type) {
	case string:
		return uint64(utf8.RuneCountInString(x)), true
	case *List:
		return uint64(len(x.E)), true
	case *Tuple:
		return uint64(len(x.E)), true
	case *Dict:
		return uint64(x.Len()), true
	case rangeVal:
		return x.length(), true
	}
	return 0, false
}

// toPy converts a CWL document value to Python-space values.
func toPy(v any) any {
	return exprcore.FromDoc(v, func(v any) any {
		if n, ok := v.(int); ok {
			return int64(n)
		}
		return v
	}, func(e []any) any { return &List{E: e} })
}

// fromPy converts interpreter values back to the CWL document vocabulary.
func fromPy(v any) any { return exprcore.ToDoc(v, fromPyScalar, pyElems) }

func fromPyScalar(v any) any {
	if e, ok := v.(*Exception); ok {
		return e.String()
	}
	return v
}

func pyElems(v any) ([]any, bool) {
	switch x := v.(type) {
	case *List:
		return x.E, true
	case *Tuple:
		return x.E, true
	case rangeVal:
		items, _ := iterValues(x, 0)
		return items, true
	}
	return nil, false
}

// pyStr is str(v); pyRepr is repr(v).
func pyStr(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case *Exception:
		return x.Msg
	}
	return pyRepr(v)
}

func pyRepr(v any) string {
	switch x := v.(type) {
	case nil:
		return "None"
	case bool:
		if x {
			return "True"
		}
		return "False"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return formatPyFloat(x)
	case string:
		return reprString(x)
	case *List:
		return "[" + joinRepr(x.E) + "]"
	case *Tuple:
		if len(x.E) == 1 {
			return "(" + pyRepr(x.E[0]) + ",)"
		}
		return "(" + joinRepr(x.E) + ")"
	case *Dict:
		parts := make([]string, 0, x.Len())
		x.Range(func(k string, vv any) bool {
			parts = append(parts, reprString(k)+": "+pyRepr(vv))
			return true
		})
		return "{" + strings.Join(parts, ", ") + "}"
	case *Exception:
		if x.Msg == "" {
			return x.Type + "()"
		}
		return x.Type + "(" + reprString(x.Msg) + ")"
	case *PyFunc:
		return "<function " + x.Name + ">"
	case *Builtin:
		return "<built-in function " + x.Name + ">"
	case *boundPyMethod:
		return "<built-in method " + x.name + ">"
	case rangeVal:
		if x.step == 1 {
			return fmt.Sprintf("range(%d, %d)", x.start, x.stop)
		}
		return fmt.Sprintf("range(%d, %d, %d)", x.start, x.stop, x.step)
	}
	return fmt.Sprint(v)
}

func joinRepr(elems []any) string {
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = pyRepr(e)
	}
	return strings.Join(parts, ", ")
}

// reprString quotes s as CPython's repr does: single quotes unless s holds
// a single quote and no double quote, with non-printable runes escaped.
func reprString(s string) string {
	quote := '\''
	if strings.ContainsRune(s, '\'') && !strings.ContainsRune(s, '"') {
		quote = '"'
	}
	var b strings.Builder
	b.WriteRune(quote)
	for _, r := range s {
		switch {
		case r == quote || r == '\\':
			b.WriteByte('\\')
			b.WriteRune(r)
		case r == '\n':
			b.WriteString(`\n`)
		case r == '\r':
			b.WriteString(`\r`)
		case r == '\t':
			b.WriteString(`\t`)
		case r < 0x20 || r == 0x7f || (r >= 0x80 && r <= 0xff && !unicode.IsPrint(r)):
			fmt.Fprintf(&b, `\x%02x`, r)
		case r > 0xff && !unicode.IsPrint(r):
			if r <= 0xffff {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				fmt.Fprintf(&b, `\U%08x`, r)
			}
		default:
			b.WriteRune(r)
		}
	}
	b.WriteRune(quote)
	return b.String()
}

// formatPyFloat is CPython's float repr: the shortest digits that round
// trip, positional for decimal exponents in [-4, 16), scientific otherwise.
func formatPyFloat(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "inf"
	case math.IsInf(f, -1):
		return "-inf"
	case math.IsNaN(f):
		return "nan"
	}
	sci := strconv.FormatFloat(f, 'e', -1, 64)
	exp, _ := strconv.Atoi(sci[strings.IndexByte(sci, 'e')+1:])
	if exp < -4 || exp >= 16 {
		return sci
	}
	s := strconv.FormatFloat(f, 'f', -1, 64)
	if !strings.ContainsRune(s, '.') {
		s += ".0"
	}
	return s
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
