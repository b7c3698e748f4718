package jsexpr

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/yamlx"
)

// Undefined is the JavaScript undefined value.
type Undefined struct{}

func (Undefined) String() string { return "undefined" }

// Array is a mutable JS array (reference semantics, like the real thing).
type Array struct{ E []any }

// NewArray wraps elems in a JS array value.
func NewArray(elems ...any) *Array { return &Array{E: elems} }

// Object is a JS object with deterministic (insertion-ordered) keys. CWL File
// objects and input maps flow through unchanged.
type Object = yamlx.Map

// Closure is a user-defined function value.
type Closure struct {
	decl *funcLit
	env  *environ
}

// NativeFunc is a builtin function value. this is the receiver for method
// calls (nil otherwise).
type NativeFunc struct {
	Name string
	Fn   func(this any, args []any) (any, error)
}

// ThrownError wraps a value raised by a JS throw statement.
type ThrownError struct{ Value any }

func (t *ThrownError) Error() string {
	// Error-like objects render as "Name: message".
	if o, ok := t.Value.(*yamlx.Map); ok && o.Has("message") {
		name := o.GetString("name")
		if name == "" {
			name = "Error"
		}
		return "javascript exception: " + name + ": " + o.GetString("message")
	}
	return "javascript exception: " + jsToString(t.Value)
}

type environ struct {
	vars   map[string]any
	parent *environ
	// frozen marks an environment as sealed for writes: the shared global
	// scope after library loading. Assignments never touch a frozen
	// environment; they bind into the innermost per-evaluation scope instead,
	// which is what makes concurrent evaluation of one Program race-free.
	frozen bool
}

func newEnviron(parent *environ) *environ {
	return &environ{vars: map[string]any{}, parent: parent}
}

func (e *environ) lookup(name string) (any, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (e *environ) assign(name string, v any) bool {
	for env := e; env != nil && !env.frozen; env = env.parent {
		if _, ok := env.vars[name]; ok {
			env.vars[name] = v
			return true
		}
	}
	return false
}

func (e *environ) define(name string, v any) { e.vars[name] = v }

// defineOutermost binds name in the outermost writable scope of e's chain —
// the stand-in for an implicit global when the true global is frozen.
func defineOutermost(e *environ, name string, v any) {
	target := e
	for env := e; env != nil && !env.frozen; env = env.parent {
		target = env
	}
	target.define(name, v)
}

// Interp is a JavaScript interpreter instance holding an expression library
// (global functions and variables). Load libraries first (LoadLib), then
// evaluate: the first evaluation seals the global scope, after which one
// Interp may evaluate compiled Programs from many goroutines concurrently.
//
// Concurrency is fully parallel when the library consists of functions and
// scalar constants (the overwhelmingly common case). A library that stores
// mutable state reachable from globals — an object or array global, or a
// closure over a non-global scope — can be mutated in place by expressions,
// so evaluation on such an Interp is transparently serialized instead.
type Interp struct {
	global   *environ
	steps    int
	maxSteps int
	calls    int // active Closure calls, bounded by maxCallDepth
	sealOnce sync.Once
	// builtinVals snapshots the builtin globals installed by New, so sealing
	// can tell library-defined globals apart from the standard ones.
	builtinVals map[string]any
	// serialize (decided at seal time) forces evaluations to take evalMu.
	serialize bool
	evalMu    sync.Mutex
}

// DefaultMaxSteps bounds evaluation work per expression; generous for any
// realistic CWL expression but small enough to stop runaway loops quickly.
const DefaultMaxSteps = 5_000_000

// maxCallDepth bounds how deeply JavaScript functions may call each other.
// Going deeper throws a RangeError, as an engine's stack limit does.
const maxCallDepth = 1000

// New creates an interpreter with the standard builtins installed.
func New() *Interp {
	ip := &Interp{maxSteps: DefaultMaxSteps}
	ip.global = newEnviron(nil)
	installBuiltins(ip.global)
	ip.builtinVals = make(map[string]any, len(ip.global.vars))
	for k, v := range ip.global.vars {
		ip.builtinVals[k] = v
	}
	return ip
}

// LoadLib executes expressionLib source (function declarations, consts) into
// the interpreter's global scope. All libraries must load before the first
// evaluation: evaluating seals the global scope for concurrent use.
func (ip *Interp) LoadLib(src string) error {
	if ip.global.frozen {
		return errors.New("jsexpr: LoadLib called after evaluation started (global scope is sealed)")
	}
	prog, err := parseProgram(src)
	if err != nil {
		return err
	}
	ip.steps = 0
	_, err = ip.execStmts(prog, ip.global)
	return err
}

// EvalExpr evaluates a single JavaScript expression (the inside of $(...))
// with the given variables in scope. The result is converted back to plain Go
// values (CWL document vocabulary). It is a thin compile-then-run wrapper;
// callers on a hot path should Compile once and RunProgram many times.
func (ip *Interp) EvalExpr(src string, vars map[string]any) (any, error) {
	p, err := CompileExpr(src)
	if err != nil {
		return nil, err
	}
	return ip.RunProgram(p, vars)
}

// EvalBody evaluates a ${...} function body: statements that should return a
// value. Like EvalExpr, it is a thin wrapper over CompileBody + RunProgram.
func (ip *Interp) EvalBody(src string, vars map[string]any) (any, error) {
	p, err := CompileBody(src)
	if err != nil {
		return nil, err
	}
	return ip.RunProgram(p, vars)
}

func (ip *Interp) scopeWith(vars map[string]any) *environ {
	env := newEnviron(ip.global)
	for k, v := range vars {
		env.define(k, ToJS(v))
	}
	return env
}

func (ip *Interp) tick(pos int) error {
	ip.steps++
	if ip.steps > ip.maxSteps {
		return fmt.Errorf("javascript evaluation exceeded %d steps (offset %d): possible infinite loop", ip.maxSteps, pos)
	}
	return nil
}

// control-flow signals returned by statement execution.
type ctrl struct {
	kind  ctrlKind
	value any
}

type ctrlKind int

const (
	ctrlReturn ctrlKind = iota + 1
	ctrlBreak
	ctrlContinue
)

// execStmts runs statements; a non-nil *ctrl reports return/break/continue
// propagation.
func (ip *Interp) execStmts(stmts []Node, env *environ) (*ctrl, error) {
	for _, s := range stmts {
		c, err := ip.exec(s, env)
		if err != nil || c != nil {
			return c, err
		}
	}
	return nil, nil
}

func (ip *Interp) exec(s Node, env *environ) (*ctrl, error) {
	if err := ip.tick(s.nodePos()); err != nil {
		return nil, err
	}
	switch st := s.(type) {
	case *varDecl:
		for i, name := range st.Names {
			var v any = Undefined{}
			if st.Inits[i] != nil {
				var err error
				v, err = ip.eval(st.Inits[i], env)
				if err != nil {
					return nil, err
				}
			}
			env.define(name, v)
		}
		return nil, nil
	case *exprStmt:
		if fn, ok := st.X.(*funcLit); ok && fn.Name != "" {
			env.define(fn.Name, &Closure{decl: fn, env: env})
			return nil, nil
		}
		_, err := ip.eval(st.X, env)
		return nil, err
	case *returnStmt:
		var v any = Undefined{}
		if st.X != nil {
			var err error
			v, err = ip.eval(st.X, env)
			if err != nil {
				return nil, err
			}
		}
		return &ctrl{kind: ctrlReturn, value: v}, nil
	case *ifStmt:
		t, err := ip.eval(st.Test, env)
		if err != nil {
			return nil, err
		}
		if truthy(t) {
			return ip.execStmts(st.Then, newEnviron(env))
		}
		if st.Else != nil {
			return ip.execStmts(st.Else, newEnviron(env))
		}
		return nil, nil
	case *whileStmt:
		for {
			if err := ip.tick(st.Pos); err != nil {
				return nil, err
			}
			t, err := ip.eval(st.Test, env)
			if err != nil {
				return nil, err
			}
			if !truthy(t) {
				return nil, nil
			}
			c, err := ip.execStmts(st.Body, newEnviron(env))
			if err != nil {
				return nil, err
			}
			if c != nil {
				switch c.kind {
				case ctrlBreak:
					return nil, nil
				case ctrlContinue:
					continue
				default:
					return c, nil
				}
			}
		}
	case *forStmt:
		loopEnv := newEnviron(env)
		if st.Init != nil {
			if c, err := ip.exec(st.Init, loopEnv); err != nil || c != nil {
				return c, err
			}
		}
		for {
			if err := ip.tick(st.Pos); err != nil {
				return nil, err
			}
			if st.Test != nil {
				t, err := ip.eval(st.Test, loopEnv)
				if err != nil {
					return nil, err
				}
				if !truthy(t) {
					return nil, nil
				}
			}
			c, err := ip.execStmts(st.Body, newEnviron(loopEnv))
			if err != nil {
				return nil, err
			}
			if c != nil {
				switch c.kind {
				case ctrlBreak:
					return nil, nil
				case ctrlContinue:
				default:
					return c, nil
				}
			}
			if st.Post != nil {
				if _, err := ip.eval(st.Post, loopEnv); err != nil {
					return nil, err
				}
			}
		}
	case *forInOf:
		obj, err := ip.eval(st.Obj, env)
		if err != nil {
			return nil, err
		}
		var items []any
		switch o := obj.(type) {
		case *Array:
			if st.Of {
				items = append(items, o.E...)
			} else {
				for i := range o.E {
					items = append(items, float64(i))
				}
			}
		case *Object:
			if st.Of {
				return nil, fmt.Errorf("for-of over a plain object (offset %d)", st.Pos)
			}
			for _, k := range o.Keys() {
				items = append(items, k)
			}
		case string:
			if st.Of {
				for _, r := range o {
					items = append(items, string(r))
				}
			} else {
				for i := range []rune(o) {
					items = append(items, float64(i))
				}
			}
		default:
			return nil, fmt.Errorf("cannot iterate %s (offset %d)", typeName(obj), st.Pos)
		}
		for _, it := range items {
			if err := ip.tick(st.Pos); err != nil {
				return nil, err
			}
			iterEnv := newEnviron(env)
			iterEnv.define(st.VarName, it)
			c, err := ip.execStmts(st.Body, iterEnv)
			if err != nil {
				return nil, err
			}
			if c != nil {
				switch c.kind {
				case ctrlBreak:
					return nil, nil
				case ctrlContinue:
					continue
				default:
					return c, nil
				}
			}
		}
		return nil, nil
	case *breakStmt:
		return &ctrl{kind: ctrlBreak}, nil
	case *continueStmt:
		return &ctrl{kind: ctrlContinue}, nil
	case *throwStmt:
		v, err := ip.eval(st.X, env)
		if err != nil {
			return nil, err
		}
		return nil, &ThrownError{Value: FromJS(v)}
	case *blockStmt:
		return ip.execStmts(st.Stmts, newEnviron(env))
	default:
		return nil, fmt.Errorf("unsupported statement %T", s)
	}
}

func (ip *Interp) eval(n Node, env *environ) (any, error) {
	if err := ip.tick(n.nodePos()); err != nil {
		return nil, err
	}
	switch e := n.(type) {
	case *numLit:
		return e.Val, nil
	case *strLit:
		return e.Val, nil
	case *boolLit:
		return e.Val, nil
	case *nullLit:
		return nil, nil
	case *undefLit:
		return Undefined{}, nil
	case *ident:
		if v, ok := env.lookup(e.Name); ok {
			return v, nil
		}
		return nil, fmt.Errorf("%s is not defined (offset %d)", e.Name, e.Pos)
	case *arrayLit:
		arr := &Array{}
		for _, el := range e.Elems {
			v, err := ip.eval(el, env)
			if err != nil {
				return nil, err
			}
			arr.E = append(arr.E, v)
		}
		return arr, nil
	case *objectLit:
		o := yamlx.NewMap()
		for i, k := range e.Keys {
			v, err := ip.eval(e.Vals[i], env)
			if err != nil {
				return nil, err
			}
			o.Set(k, v)
		}
		return o, nil
	case *funcLit:
		return &Closure{decl: e, env: env}, nil
	case *member:
		obj, err := ip.eval(e.Obj, env)
		if err != nil {
			return nil, err
		}
		return ip.getProp(obj, e.Name, e.Pos)
	case *index:
		obj, err := ip.eval(e.Obj, env)
		if err != nil {
			return nil, err
		}
		key, err := ip.eval(e.Key, env)
		if err != nil {
			return nil, err
		}
		return ip.getIndex(obj, key, e.Pos)
	case *call:
		return ip.evalCall(e, env)
	case *newExpr:
		// Supported constructors: Error(msg), Array(), Object().
		if id, ok := e.Callee.(*ident); ok {
			switch id.Name {
			case "Error", "TypeError", "RangeError":
				msg := ""
				if len(e.Args) > 0 {
					v, err := ip.eval(e.Args[0], env)
					if err != nil {
						return nil, err
					}
					msg = jsToString(v)
				}
				o := yamlx.NewMap()
				o.Set("name", id.Name)
				o.Set("message", msg)
				return o, nil
			case "Array":
				return &Array{}, nil
			case "Object":
				return yamlx.NewMap(), nil
			}
		}
		return nil, fmt.Errorf("unsupported constructor (offset %d)", e.Pos)
	case *unary:
		return ip.evalUnary(e, env)
	case *binary:
		l, err := ip.eval(e.L, env)
		if err != nil {
			return nil, err
		}
		r, err := ip.eval(e.R, env)
		if err != nil {
			return nil, err
		}
		return applyBinary(e.Op, l, r, e.Pos)
	case *logical:
		l, err := ip.eval(e.L, env)
		if err != nil {
			return nil, err
		}
		if e.Op == "&&" {
			if !truthy(l) {
				return l, nil
			}
			return ip.eval(e.R, env)
		}
		if truthy(l) {
			return l, nil
		}
		return ip.eval(e.R, env)
	case *cond:
		t, err := ip.eval(e.Test, env)
		if err != nil {
			return nil, err
		}
		if truthy(t) {
			return ip.eval(e.Then, env)
		}
		return ip.eval(e.Else, env)
	case *assign:
		return ip.evalAssign(e, env)
	default:
		return nil, fmt.Errorf("unsupported expression %T", n)
	}
}

func (ip *Interp) evalUnary(e *unary, env *environ) (any, error) {
	if e.Op == "++" || e.Op == "--" {
		old, err := ip.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		n, err := toNumber(old)
		if err != nil {
			return nil, err
		}
		var nv float64
		if e.Op == "++" {
			nv = n + 1
		} else {
			nv = n - 1
		}
		if err := ip.setTarget(e.X, nv, env); err != nil {
			return nil, err
		}
		if e.Postfix {
			return n, nil
		}
		return nv, nil
	}
	x, err := ip.eval(e.X, env)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "!":
		return !truthy(x), nil
	case "-":
		n, err := toNumber(x)
		if err != nil {
			return nil, err
		}
		return -n, nil
	case "+":
		n, err := toNumber(x)
		if err != nil {
			return nil, err
		}
		return n, nil
	case "typeof":
		return typeName(x), nil
	}
	return nil, fmt.Errorf("unsupported unary operator %q", e.Op)
}

func (ip *Interp) evalAssign(e *assign, env *environ) (any, error) {
	val, err := ip.eval(e.Val, env)
	if err != nil {
		return nil, err
	}
	if e.Op != "=" {
		old, err := ip.eval(e.Target, env)
		if err != nil {
			return nil, err
		}
		val, err = applyBinary(strings.TrimSuffix(e.Op, "="), old, val, e.Pos)
		if err != nil {
			return nil, err
		}
	}
	if err := ip.setTarget(e.Target, val, env); err != nil {
		return nil, err
	}
	return val, nil
}

func (ip *Interp) setTarget(target Node, val any, env *environ) error {
	switch t := target.(type) {
	case *ident:
		if !env.assign(t.Name, val) {
			// Implicit global, as sloppy-mode JS would. Once the true global
			// is sealed, the binding lands in the outermost per-eval scope so
			// concurrent evaluations stay isolated.
			if ip.global.frozen {
				defineOutermost(env, t.Name, val)
			} else {
				ip.global.define(t.Name, val)
			}
		}
		return nil
	case *member:
		obj, err := ip.eval(t.Obj, env)
		if err != nil {
			return err
		}
		if o, ok := obj.(*Object); ok {
			o.Set(t.Name, val)
			return nil
		}
		return fmt.Errorf("cannot set property %q on %s", t.Name, typeName(obj))
	case *index:
		obj, err := ip.eval(t.Obj, env)
		if err != nil {
			return err
		}
		key, err := ip.eval(t.Key, env)
		if err != nil {
			return err
		}
		switch o := obj.(type) {
		case *Array:
			i, err := toNumber(key)
			if err != nil {
				return err
			}
			idx := int(i)
			if idx < 0 {
				return fmt.Errorf("negative array index %d", idx)
			}
			for len(o.E) <= idx {
				o.E = append(o.E, Undefined{})
			}
			o.E[idx] = val
			return nil
		case *Object:
			o.Set(jsToString(key), val)
			return nil
		}
		return fmt.Errorf("cannot index-assign on %s", typeName(obj))
	}
	return errors.New("invalid assignment target")
}

func (ip *Interp) evalCall(e *call, env *environ) (any, error) {
	// Method call: evaluate receiver, resolve property on it.
	if m, ok := e.Callee.(*member); ok {
		recv, err := ip.eval(m.Obj, env)
		if err != nil {
			return nil, err
		}
		fn, err := ip.getProp(recv, m.Name, m.Pos)
		if err != nil {
			return nil, err
		}
		args, err := ip.evalArgs(e.Args, env)
		if err != nil {
			return nil, err
		}
		return ip.callValue(fn, recv, args, e.Pos)
	}
	fn, err := ip.eval(e.Callee, env)
	if err != nil {
		return nil, err
	}
	args, err := ip.evalArgs(e.Args, env)
	if err != nil {
		return nil, err
	}
	return ip.callValue(fn, nil, args, e.Pos)
}

func (ip *Interp) evalArgs(nodes []Node, env *environ) ([]any, error) {
	args := make([]any, 0, len(nodes))
	for _, a := range nodes {
		v, err := ip.eval(a, env)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

func (ip *Interp) callValue(fn any, this any, args []any, pos int) (any, error) {
	switch f := fn.(type) {
	case *Closure:
		if ip.calls >= maxCallDepth {
			return nil, &ThrownError{Value: yamlx.MapOf("name", "RangeError", "message", "Maximum call stack size exceeded")}
		}
		fnEnv := newEnviron(f.env)
		for i, p := range f.decl.Params {
			if i < len(args) {
				fnEnv.define(p, args[i])
			} else {
				fnEnv.define(p, Undefined{})
			}
		}
		fnEnv.define("arguments", &Array{E: args})
		ip.calls++
		c, err := ip.execStmts(f.decl.Body, fnEnv)
		ip.calls--
		if err != nil {
			return nil, err
		}
		if c != nil && c.kind == ctrlReturn {
			return c.value, nil
		}
		return Undefined{}, nil
	case *NativeFunc:
		return f.Fn(this, args)
	case *boundMethod:
		return f.fn(f.this, args)
	}
	return nil, fmt.Errorf("%s is not a function (offset %d)", typeName(fn), pos)
}

// boundMethod couples a native method with its receiver when the property is
// read before being called.
type boundMethod struct {
	name string
	this any
	fn   func(this any, args []any) (any, error)
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "object" // typeof null === "object"
	case Undefined:
		return "undefined"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case *Array, *Object:
		return "object"
	case *Closure, *NativeFunc, *boundMethod:
		return "function"
	}
	return fmt.Sprintf("%T", v)
}

func truthy(v any) bool {
	switch x := v.(type) {
	case nil, Undefined:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

func toNumber(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	case nil:
		return 0, nil
	case Undefined:
		return math.NaN(), nil
	case string:
		s := strings.TrimSpace(x)
		if s == "" {
			return 0, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN(), nil
		}
		return f, nil
	}
	return 0, fmt.Errorf("cannot convert %s to number", typeName(v))
}

// jsToString renders a value the way JavaScript string conversion would.
func jsToString(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case Undefined:
		return "undefined"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return formatJSNumber(x)
	case string:
		return x
	case *Array:
		parts := make([]string, len(x.E))
		for i, e := range x.E {
			if e == nil || (e == any(Undefined{})) {
				parts[i] = ""
			} else {
				parts[i] = jsToString(e)
			}
		}
		return strings.Join(parts, ",")
	case *Object:
		return "[object Object]"
	case *Closure, *NativeFunc, *boundMethod:
		return "function"
	}
	return fmt.Sprint(v)
}

func formatJSNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e21 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func applyBinary(op string, l, r any, pos int) (any, error) {
	switch op {
	case "+":
		ls, lIsStr := l.(string)
		rs, rIsStr := r.(string)
		if lIsStr || rIsStr {
			if !lIsStr {
				ls = jsToString(l)
			}
			if !rIsStr {
				rs = jsToString(r)
			}
			return ls + rs, nil
		}
		if la, ok := l.(*Array); ok {
			return jsToString(la) + jsToString(r), nil
		}
		if ra, ok := r.(*Array); ok {
			return jsToString(l) + jsToString(ra), nil
		}
		ln, err := toNumber(l)
		if err != nil {
			return nil, err
		}
		rn, err := toNumber(r)
		if err != nil {
			return nil, err
		}
		return ln + rn, nil
	case "-", "*", "/", "%", "**":
		ln, err := toNumber(l)
		if err != nil {
			return nil, err
		}
		rn, err := toNumber(r)
		if err != nil {
			return nil, err
		}
		switch op {
		case "-":
			return ln - rn, nil
		case "*":
			return ln * rn, nil
		case "/":
			return ln / rn, nil
		case "%":
			return math.Mod(ln, rn), nil
		case "**":
			return math.Pow(ln, rn), nil
		}
	case "<", ">", "<=", ">=":
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				switch op {
				case "<":
					return ls < rs, nil
				case ">":
					return ls > rs, nil
				case "<=":
					return ls <= rs, nil
				case ">=":
					return ls >= rs, nil
				}
			}
		}
		ln, err := toNumber(l)
		if err != nil {
			return nil, err
		}
		rn, err := toNumber(r)
		if err != nil {
			return nil, err
		}
		switch op {
		case "<":
			return ln < rn, nil
		case ">":
			return ln > rn, nil
		case "<=":
			return ln <= rn, nil
		case ">=":
			return ln >= rn, nil
		}
	case "==":
		return looseEq(l, r), nil
	case "!=":
		return !looseEq(l, r), nil
	case "===":
		return strictEq(l, r), nil
	case "!==":
		return !strictEq(l, r), nil
	case "in":
		key := jsToString(l)
		switch o := r.(type) {
		case *Object:
			return o.Has(key), nil
		case *Array:
			n, err := toNumber(l)
			if err != nil {
				return nil, err
			}
			return int(n) >= 0 && int(n) < len(o.E), nil
		}
		return nil, fmt.Errorf("'in' on non-object (offset %d)", pos)
	}
	return nil, fmt.Errorf("unsupported operator %q (offset %d)", op, pos)
}

func strictEq(l, r any) bool {
	switch lv := l.(type) {
	case nil:
		_, rIsNil := r.(Undefined)
		return r == nil && !rIsNil
	case Undefined:
		_, ok := r.(Undefined)
		return ok
	case bool:
		rv, ok := r.(bool)
		return ok && lv == rv
	case float64:
		rv, ok := r.(float64)
		return ok && lv == rv
	case string:
		rv, ok := r.(string)
		return ok && lv == rv
	default:
		return l == r // reference equality for objects/arrays/functions
	}
}

func looseEq(l, r any) bool {
	if strictEq(l, r) {
		return true
	}
	lNilish := l == nil || l == any(Undefined{})
	rNilish := r == nil || r == any(Undefined{})
	if lNilish || rNilish {
		return lNilish && rNilish
	}
	// number/string/bool coercion
	ln, lerr := toNumber(l)
	rn, rerr := toNumber(r)
	if lerr == nil && rerr == nil {
		switch l.(type) {
		case float64, string, bool:
			switch r.(type) {
			case float64, string, bool:
				return ln == rn && !math.IsNaN(ln)
			}
		}
	}
	return false
}

// ToJS converts a CWL document value into the interpreter's value space.
func ToJS(v any) any {
	switch x := v.(type) {
	case nil:
		return nil
	case bool, string, float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case []any:
		arr := &Array{E: make([]any, len(x))}
		for i, e := range x {
			arr.E[i] = ToJS(e)
		}
		return arr
	case []string:
		arr := &Array{E: make([]any, len(x))}
		for i, e := range x {
			arr.E[i] = e
		}
		return arr
	case *yamlx.Map:
		o := yamlx.NewMap()
		x.Range(func(k string, vv any) bool {
			o.Set(k, ToJS(vv))
			return true
		})
		return o
	case map[string]any:
		o := yamlx.NewMap()
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			o.Set(k, ToJS(x[k]))
		}
		return o
	default:
		return v
	}
}

// FromJS converts an interpreter value back into the CWL document vocabulary:
// integral floats become int64, arrays become []any, undefined becomes nil.
func FromJS(v any) any {
	switch x := v.(type) {
	case Undefined:
		return nil
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 && !math.Signbit(x) || (x == math.Trunc(x) && math.Abs(x) < 1e15) {
			return int64(x)
		}
		return x
	case *Array:
		out := make([]any, len(x.E))
		for i, e := range x.E {
			out[i] = FromJS(e)
		}
		return out
	case *Object:
		o := yamlx.NewMap()
		x.Range(func(k string, vv any) bool {
			o.Set(k, FromJS(vv))
			return true
		})
		return o
	default:
		return v
	}
}
