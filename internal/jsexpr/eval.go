package jsexpr

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/exprcore"
	"repro/internal/yamlx"
)

// Undefined is the JavaScript undefined value.
type Undefined struct{}

func (Undefined) String() string { return "undefined" }

// Array is a mutable JS array (reference semantics, like the real thing).
type Array struct{ E []any }

// Object is a JS object with deterministic (insertion-ordered) keys. CWL File
// objects and input maps flow through unchanged.
type Object = yamlx.Map

// Closure is a user-defined function value.
type Closure struct {
	decl *funcLit
	env  *exprcore.Scope
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

// assignVar sets name in the innermost scope of e's chain that binds it,
// stopping at the frozen globals, and reports whether one did.
func assignVar(e *exprcore.Scope, name string, v any) bool {
	for env := e; env != nil && !env.Frozen; env = env.Parent {
		if _, ok := env.Vars[name]; ok {
			env.Vars[name] = v
			return true
		}
	}
	return false
}

// defineOutermost binds name in the outermost writable scope of e's chain:
// the global scope while libraries load, and once it is frozen the
// evaluation's own outermost scope, which stands in for it.
func defineOutermost(e *exprcore.Scope, name string, v any) {
	target := e
	for env := e; env != nil && !env.Frozen; env = env.Parent {
		target = env
	}
	target.Define(name, v)
}

// Interp is a JavaScript interpreter instance holding an expression library
// (global functions and variables). Load libraries first (LoadLib), then
// evaluate: the first evaluation seals the global scope, after which one
// Interp may evaluate compiled Programs from many goroutines concurrently
// (see exprcore.Globals for when evaluations take turns instead).
type Interp struct {
	lib      *exprcore.Globals
	meter    exprcore.Meter
	maxSteps int // the step budget of each evaluation
}

var jsLang = exprcore.Lang{Name: "javascript", Pos: "offset"}

// New creates an interpreter with the standard builtins installed.
func New() *Interp {
	g := exprcore.NewScope(nil)
	installBuiltins(g)
	return &Interp{lib: exprcore.NewGlobals(g, func(v any) bool { return jsMutable(g, v) }), maxSteps: exprcore.MaxSteps}
}

// jsMutable reports whether a library-defined global carries state an
// expression could mutate in place: an array, an object, or a closure over
// a non-global scope.
func jsMutable(global *exprcore.Scope, v any) bool {
	switch x := v.(type) {
	case *Array, *Object:
		return true
	case *Closure:
		return x.env != global
	}
	return false
}

// LoadLib executes expressionLib source (function declarations, consts) into
// the interpreter's global scope. All libraries must load before the first
// evaluation: evaluating seals the global scope for concurrent use.
func (ip *Interp) LoadLib(src string) error {
	if err := ip.lib.Loadable(); err != nil {
		return fmt.Errorf("jsexpr: %w", err)
	}
	prog, err := parseProgram(src)
	if err != nil {
		return err
	}
	ip.meter = exprcore.NewMeter(&jsLang, ip.maxSteps)
	_, err = ip.execStmts(prog, ip.lib.Scope)
	return err
}

// execStmts runs statements; a non-nil Ctrl reports return/break/continue
// propagation.
func (ip *Interp) execStmts(stmts []Node, env *exprcore.Scope) (*exprcore.Ctrl, error) {
	for _, s := range stmts {
		c, err := ip.exec(s, env)
		if err != nil || c != nil {
			return c, err
		}
	}
	return nil, nil
}

func (ip *Interp) exec(s Node, env *exprcore.Scope) (*exprcore.Ctrl, error) {
	if err := ip.meter.Tick(s.nodePos()); err != nil {
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
			env.Define(name, v)
		}
		return nil, nil
	case *exprStmt:
		if fn, ok := st.X.(*funcLit); ok && fn.Name != "" {
			env.Define(fn.Name, &Closure{decl: fn, env: env})
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
		return &exprcore.Ctrl{Kind: exprcore.Return, Value: v}, nil
	case *ifStmt:
		t, err := ip.eval(st.Test, env)
		if err != nil {
			return nil, err
		}
		if truthy(t) {
			return ip.execStmts(st.Then, exprcore.NewScope(env))
		}
		if st.Else != nil {
			return ip.execStmts(st.Else, exprcore.NewScope(env))
		}
		return nil, nil
	case *whileStmt:
		for {
			if err := ip.meter.Tick(st.Pos); err != nil {
				return nil, err
			}
			t, err := ip.eval(st.Test, env)
			if err != nil {
				return nil, err
			}
			if !truthy(t) {
				return nil, nil
			}
			c, err := ip.execStmts(st.Body, exprcore.NewScope(env))
			if err != nil {
				return nil, err
			}
			if c != nil {
				switch c.Kind {
				case exprcore.Break:
					return nil, nil
				case exprcore.Continue:
					continue
				default:
					return c, nil
				}
			}
		}
	case *forStmt:
		loopEnv := exprcore.NewScope(env)
		if st.Init != nil {
			if c, err := ip.exec(st.Init, loopEnv); err != nil || c != nil {
				return c, err
			}
		}
		for {
			if err := ip.meter.Tick(st.Pos); err != nil {
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
			c, err := ip.execStmts(st.Body, exprcore.NewScope(loopEnv))
			if err != nil {
				return nil, err
			}
			if c != nil {
				switch c.Kind {
				case exprcore.Break:
					return nil, nil
				case exprcore.Continue:
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
			if err := ip.meter.Tick(st.Pos); err != nil {
				return nil, err
			}
			iterEnv := exprcore.NewScope(env)
			iterEnv.Define(st.VarName, it)
			c, err := ip.execStmts(st.Body, iterEnv)
			if err != nil {
				return nil, err
			}
			if c != nil {
				switch c.Kind {
				case exprcore.Break:
					return nil, nil
				case exprcore.Continue:
					continue
				default:
					return c, nil
				}
			}
		}
		return nil, nil
	case *breakStmt:
		return &exprcore.Ctrl{Kind: exprcore.Break}, nil
	case *continueStmt:
		return &exprcore.Ctrl{Kind: exprcore.Continue}, nil
	case *throwStmt:
		v, err := ip.eval(st.X, env)
		if err != nil {
			return nil, err
		}
		return nil, &ThrownError{Value: FromJS(v)}
	case *blockStmt:
		return ip.execStmts(st.Stmts, exprcore.NewScope(env))
	default:
		return nil, fmt.Errorf("unsupported statement %T", s)
	}
}

func (ip *Interp) eval(n Node, env *exprcore.Scope) (any, error) {
	if err := ip.meter.Tick(n.nodePos()); err != nil {
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
		if v, ok := env.Lookup(e.Name); ok {
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

func (ip *Interp) evalUnary(e *unary, env *exprcore.Scope) (any, error) {
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

func (ip *Interp) evalAssign(e *assign, env *exprcore.Scope) (any, error) {
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

func (ip *Interp) setTarget(target Node, val any, env *exprcore.Scope) error {
	switch t := target.(type) {
	case *ident:
		if !assignVar(env, t.Name, val) {
			// Implicit global, as sloppy-mode JS would. Once the true global
			// is sealed, the binding lands in the outermost per-eval scope so
			// concurrent evaluations stay isolated.
			defineOutermost(env, t.Name, val)
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

func (ip *Interp) evalCall(e *call, env *exprcore.Scope) (any, error) {
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

func (ip *Interp) evalArgs(nodes []Node, env *exprcore.Scope) ([]any, error) {
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
		if ip.meter.Call() != nil {
			return nil, &ThrownError{Value: yamlx.MapOf("name", "RangeError", "message", "Maximum call stack size exceeded")}
		}
		fnEnv := exprcore.NewScope(f.env)
		for i, p := range f.decl.Params {
			if i < len(args) {
				fnEnv.Define(p, args[i])
			} else {
				fnEnv.Define(p, Undefined{})
			}
		}
		fnEnv.Define("arguments", &Array{E: args})
		c, err := ip.execStmts(f.decl.Body, fnEnv)
		ip.meter.Return()
		if err != nil {
			return nil, err
		}
		if c != nil && c.Kind == exprcore.Return {
			return c.Value, nil
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
	return exprcore.FromDoc(v, func(v any) any {
		switch x := v.(type) {
		case int:
			return float64(x)
		case int64:
			return float64(x)
		}
		return v
	}, func(e []any) any { return &Array{E: e} })
}

// FromJS converts an interpreter value back into the CWL document vocabulary:
// integral floats become int64, arrays become []any, undefined becomes nil.
func FromJS(v any) any { return exprcore.ToDoc(v, fromJSScalar, jsElems) }

func fromJSScalar(v any) any {
	switch x := v.(type) {
	case Undefined:
		return nil
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return int64(x)
		}
	}
	return v
}

func jsElems(v any) ([]any, bool) {
	if a, ok := v.(*Array); ok {
		return a.E, true
	}
	return nil, false
}
