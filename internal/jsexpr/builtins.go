package jsexpr

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exprcore"
	"repro/internal/yamlx"
)

func nf(name string, fn func(this any, args []any) (any, error)) *NativeFunc {
	return &NativeFunc{Name: name, Fn: fn}
}

func arg(args []any, i int) any {
	if i < len(args) {
		return args[i]
	}
	return Undefined{}
}

func argNum(args []any, i int, def float64) (float64, error) {
	v := arg(args, i)
	if _, ok := v.(Undefined); ok {
		return def, nil
	}
	return toNumber(v)
}

func argStr(args []any, i int) string {
	v := arg(args, i)
	if _, ok := v.(Undefined); ok {
		return ""
	}
	return jsToString(v)
}

// jsRound is Math.round: the nearest integer, with halves going toward +∞,
// so -2.5 rounds to -2 and -0.5 to -0. x minus its floor is exact, so
// 0.49999999999999994 rounds to 0, which floor(x + 0.5) gets wrong.
func jsRound(x float64) float64 {
	r := math.Floor(x)
	if x-r >= 0.5 {
		r++
	}
	if r == 0 && math.Signbit(x) {
		return math.Copysign(0, -1)
	}
	return r
}

func installBuiltins(g *exprcore.Scope) {
	g.Define("NaN", math.NaN())
	g.Define("Infinity", math.Inf(1))

	g.Define("parseInt", nf("parseInt", func(_ any, args []any) (any, error) {
		s := strings.TrimSpace(argStr(args, 0))
		radix, err := argNum(args, 1, 10)
		if err != nil {
			return nil, err
		}
		if radix == 0 {
			radix = 10
		}
		sign := 1.0
		if strings.HasPrefix(s, "-") {
			sign, s = -1, s[1:]
		} else if strings.HasPrefix(s, "+") {
			s = s[1:]
		}
		if radix == 16 && (strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X")) {
			s = s[2:]
		}
		end := 0
		for end < len(s) && digitVal(s[end]) >= 0 && digitVal(s[end]) < int(radix) {
			end++
		}
		if end == 0 {
			return math.NaN(), nil
		}
		n, err := strconv.ParseInt(s[:end], int(radix), 64)
		if err != nil {
			return math.NaN(), nil
		}
		return sign * float64(n), nil
	}))
	g.Define("parseFloat", nf("parseFloat", func(_ any, args []any) (any, error) {
		s := strings.TrimSpace(argStr(args, 0))
		end := len(s)
		for end > 0 {
			if _, err := strconv.ParseFloat(s[:end], 64); err == nil {
				break
			}
			end--
		}
		if end == 0 {
			return math.NaN(), nil
		}
		f, _ := strconv.ParseFloat(s[:end], 64)
		return f, nil
	}))
	g.Define("isNaN", nf("isNaN", func(_ any, args []any) (any, error) {
		n, err := toNumber(arg(args, 0))
		if err != nil {
			return true, nil
		}
		return math.IsNaN(n), nil
	}))
	g.Define("String", nf("String", func(_ any, args []any) (any, error) {
		return jsToString(arg(args, 0)), nil
	}))
	g.Define("Number", nf("Number", func(_ any, args []any) (any, error) {
		return toNumber(arg(args, 0))
	}))
	g.Define("Boolean", nf("Boolean", func(_ any, args []any) (any, error) {
		return truthy(arg(args, 0)), nil
	}))

	mathObj := yamlx.NewMap()
	math1 := func(name string, fn func(float64) float64) {
		mathObj.Set(name, nf("Math."+name, func(_ any, args []any) (any, error) {
			n, err := argNum(args, 0, math.NaN())
			if err != nil {
				return nil, err
			}
			return fn(n), nil
		}))
	}
	math1("floor", math.Floor)
	math1("ceil", math.Ceil)
	math1("round", jsRound)
	math1("abs", math.Abs)
	math1("sqrt", math.Sqrt)
	math1("log", math.Log)
	math1("log2", math.Log2)
	math1("log10", math.Log10)
	math1("exp", math.Exp)
	math1("trunc", math.Trunc)
	mathObj.Set("pow", nf("Math.pow", func(_ any, args []any) (any, error) {
		a, err := argNum(args, 0, math.NaN())
		if err != nil {
			return nil, err
		}
		b, err := argNum(args, 1, math.NaN())
		if err != nil {
			return nil, err
		}
		return math.Pow(a, b), nil
	}))
	varadicMath := func(name string, pick func(a, b float64) float64, init float64) {
		mathObj.Set(name, nf("Math."+name, func(_ any, args []any) (any, error) {
			out := init
			for i := range args {
				n, err := toNumber(args[i])
				if err != nil {
					return nil, err
				}
				out = pick(out, n)
			}
			return out, nil
		}))
	}
	varadicMath("min", math.Min, math.Inf(1))
	varadicMath("max", math.Max, math.Inf(-1))
	mathObj.Set("PI", math.Pi)
	mathObj.Set("E", math.E)
	g.Define("Math", mathObj)

	jsonObj := yamlx.NewMap()
	jsonObj.Set("stringify", nf("JSON.stringify", func(_ any, args []any) (any, error) {
		b, err := json.Marshal(FromJS(arg(args, 0)))
		if err != nil {
			return nil, fmt.Errorf("JSON.stringify: %w", err)
		}
		return string(b), nil
	}))
	jsonObj.Set("parse", nf("JSON.parse", func(_ any, args []any) (any, error) {
		var v any
		if err := json.Unmarshal([]byte(argStr(args, 0)), &v); err != nil {
			return nil, fmt.Errorf("JSON.parse: %w", err)
		}
		return ToJS(v), nil
	}))
	g.Define("JSON", jsonObj)

	objectObj := yamlx.NewMap()
	objectObj.Set("keys", nf("Object.keys", func(_ any, args []any) (any, error) {
		o, ok := arg(args, 0).(*Object)
		if !ok {
			return nil, fmt.Errorf("Object.keys on %s", typeName(arg(args, 0)))
		}
		arr := &Array{}
		for _, k := range o.Keys() {
			arr.E = append(arr.E, k)
		}
		return arr, nil
	}))
	objectObj.Set("values", nf("Object.values", func(_ any, args []any) (any, error) {
		o, ok := arg(args, 0).(*Object)
		if !ok {
			return nil, fmt.Errorf("Object.values on %s", typeName(arg(args, 0)))
		}
		arr := &Array{}
		for _, k := range o.Keys() {
			arr.E = append(arr.E, o.Value(k))
		}
		return arr, nil
	}))
	objectObj.Set("entries", nf("Object.entries", func(_ any, args []any) (any, error) {
		o, ok := arg(args, 0).(*Object)
		if !ok {
			return nil, fmt.Errorf("Object.entries on %s", typeName(arg(args, 0)))
		}
		arr := &Array{}
		for _, k := range o.Keys() {
			arr.E = append(arr.E, &Array{E: []any{k, o.Value(k)}})
		}
		return arr, nil
	}))
	objectObj.Set("assign", nf("Object.assign", func(_ any, args []any) (any, error) {
		dst, ok := arg(args, 0).(*Object)
		if !ok {
			return nil, fmt.Errorf("Object.assign target is %s", typeName(arg(args, 0)))
		}
		for _, src := range args[1:] {
			if so, ok := src.(*Object); ok {
				so.Range(func(k string, v any) bool {
					dst.Set(k, v)
					return true
				})
			}
		}
		return dst, nil
	}))
	g.Define("Object", objectObj)

	arrayObj := yamlx.NewMap()
	arrayObj.Set("isArray", nf("Array.isArray", func(_ any, args []any) (any, error) {
		_, ok := arg(args, 0).(*Array)
		return ok, nil
	}))
	g.Define("Array", arrayObj)
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	}
	return -1
}

// getProp resolves obj.name: data properties on objects, length, and the
// method tables for strings and arrays.
func (ip *Interp) getProp(obj any, name string, pos int) (any, error) {
	switch o := obj.(type) {
	case nil:
		return nil, fmt.Errorf("cannot read property %q of null (offset %d)", name, pos)
	case Undefined:
		return nil, fmt.Errorf("cannot read property %q of undefined (offset %d)", name, pos)
	case *Object:
		if v, ok := o.Get(name); ok {
			return v, nil
		}
		return Undefined{}, nil
	case *Array:
		if name == "length" {
			return float64(len(o.E)), nil
		}
		if m, ok := arrayMethods[name]; ok {
			return &boundMethod{name: name, this: o, fn: m(ip)}, nil
		}
		return Undefined{}, nil
	case string:
		if name == "length" {
			return float64(len(o)), nil
		}
		if m, ok := stringMethods[name]; ok {
			return &boundMethod{name: name, this: o, fn: m(ip)}, nil
		}
		return Undefined{}, nil
	case float64:
		if m, ok := numberMethods[name]; ok {
			return &boundMethod{name: name, this: o, fn: m(ip)}, nil
		}
		return Undefined{}, nil
	}
	return nil, fmt.Errorf("cannot read property %q of %s (offset %d)", name, typeName(obj), pos)
}

func (ip *Interp) getIndex(obj, key any, pos int) (any, error) {
	switch o := obj.(type) {
	case *Array:
		n, err := toNumber(key)
		if err != nil {
			if ks, ok := key.(string); ok {
				return ip.getProp(o, ks, pos)
			}
			return nil, err
		}
		if math.IsNaN(n) {
			if ks, ok := key.(string); ok {
				return ip.getProp(o, ks, pos)
			}
			return Undefined{}, nil
		}
		i := int(n)
		if i < 0 || i >= len(o.E) {
			return Undefined{}, nil
		}
		return o.E[i], nil
	case *Object:
		return ip.getProp(o, jsToString(key), pos)
	case string:
		if ks, ok := key.(string); ok {
			return ip.getProp(o, ks, pos)
		}
		n, err := toNumber(key)
		if err != nil {
			return nil, err
		}
		i := int(n)
		if i < 0 || i >= len(o) {
			return Undefined{}, nil
		}
		return string(o[i]), nil
	}
	return nil, fmt.Errorf("cannot index %s (offset %d)", typeName(obj), pos)
}

type methodTable map[string]func(ip *Interp) func(this any, args []any) (any, error)

var stringMethods = methodTable{
	"charAt": simple(func(s string, args []any) (any, error) {
		n, err := argNum(args, 0, 0)
		if err != nil {
			return nil, err
		}
		i := int(n)
		if i < 0 || i >= len(s) {
			return "", nil
		}
		return string(s[i]), nil
	}),
	"charCodeAt": simple(func(s string, args []any) (any, error) {
		n, err := argNum(args, 0, 0)
		if err != nil {
			return nil, err
		}
		i := int(n)
		if i < 0 || i >= len(s) {
			return math.NaN(), nil
		}
		return float64(s[i]), nil
	}),
	"indexOf": simple(func(s string, args []any) (any, error) {
		return float64(strings.Index(s, argStr(args, 0))), nil
	}),
	"lastIndexOf": simple(func(s string, args []any) (any, error) {
		return float64(strings.LastIndex(s, argStr(args, 0))), nil
	}),
	"includes": simple(func(s string, args []any) (any, error) {
		return strings.Contains(s, argStr(args, 0)), nil
	}),
	"startsWith": simple(func(s string, args []any) (any, error) {
		return strings.HasPrefix(s, argStr(args, 0)), nil
	}),
	"endsWith": simple(func(s string, args []any) (any, error) {
		return strings.HasSuffix(s, argStr(args, 0)), nil
	}),
	"slice": simple(func(s string, args []any) (any, error) {
		start, end, err := sliceBounds(len(s), args)
		if err != nil {
			return nil, err
		}
		return s[start:end], nil
	}),
	"substring": simple(func(s string, args []any) (any, error) {
		// substring clamps negatives to 0 (no wrapping) and swaps
		// out-of-order bounds.
		startF, err := argNum(args, 0, 0)
		if err != nil {
			return nil, err
		}
		endF, err := argNum(args, 1, float64(len(s)))
		if err != nil {
			return nil, err
		}
		clamp := func(f float64) int {
			i := int(f)
			if i < 0 {
				i = 0
			}
			if i > len(s) {
				i = len(s)
			}
			return i
		}
		start, end := clamp(startF), clamp(endF)
		if start > end {
			start, end = end, start
		}
		return s[start:end], nil
	}),
	"toUpperCase": simple(func(s string, args []any) (any, error) {
		return strings.ToUpper(s), nil
	}),
	"toLowerCase": simple(func(s string, args []any) (any, error) {
		return strings.ToLower(s), nil
	}),
	"trim": simple(func(s string, args []any) (any, error) {
		return strings.TrimSpace(s), nil
	}),
	"split": simple(func(s string, args []any) (any, error) {
		sep := arg(args, 0)
		if _, und := sep.(Undefined); und {
			return &Array{E: []any{s}}, nil
		}
		parts := strings.Split(s, jsToString(sep))
		arr := &Array{E: make([]any, len(parts))}
		for i, p := range parts {
			arr.E[i] = p
		}
		return arr, nil
	}),
	"replace": simple(func(s string, args []any) (any, error) {
		// String-pattern replace: first occurrence only (JS semantics).
		return strings.Replace(s, argStr(args, 0), argStr(args, 1), 1), nil
	}),
	"replaceAll": simple(func(s string, args []any) (any, error) {
		return strings.ReplaceAll(s, argStr(args, 0), argStr(args, 1)), nil
	}),
	"concat": simple(func(s string, args []any) (any, error) {
		var b strings.Builder
		b.WriteString(s)
		for i := range args {
			b.WriteString(jsToString(args[i]))
		}
		return b.String(), nil
	}),
	"repeat": simple(func(s string, args []any) (any, error) {
		n, err := argNum(args, 0, 0)
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 1e6 {
			return nil, fmt.Errorf("invalid repeat count %v", n)
		}
		return strings.Repeat(s, int(n)), nil
	}),
	"padStart": simple(func(s string, args []any) (any, error) {
		return pad(s, args, true)
	}),
	"padEnd": simple(func(s string, args []any) (any, error) {
		return pad(s, args, false)
	}),
	"toString": simple(func(s string, args []any) (any, error) {
		return s, nil
	}),
}

func pad(s string, args []any, start bool) (any, error) {
	n, err := argNum(args, 0, 0)
	if err != nil {
		return nil, err
	}
	fill := argStr(args, 1)
	if fill == "" {
		fill = " "
	}
	for len(s) < int(n) {
		chunk := fill
		if len(s)+len(chunk) > int(n) {
			chunk = chunk[:int(n)-len(s)]
		}
		if start {
			s = chunk + s
		} else {
			s = s + chunk
		}
	}
	return s, nil
}

func simple(fn func(s string, args []any) (any, error)) func(*Interp) func(any, []any) (any, error) {
	return func(*Interp) func(any, []any) (any, error) {
		return func(this any, args []any) (any, error) {
			s, _ := this.(string)
			return fn(s, args)
		}
	}
}

func sliceBounds(n int, args []any) (int, int, error) {
	startF, err := argNum(args, 0, 0)
	if err != nil {
		return 0, 0, err
	}
	endF, err := argNum(args, 1, float64(n))
	if err != nil {
		return 0, 0, err
	}
	norm := func(f float64) int {
		i := int(f)
		if i < 0 {
			i += n
		}
		if i < 0 {
			i = 0
		}
		if i > n {
			i = n
		}
		return i
	}
	start, end := norm(startF), norm(endF)
	if start > end {
		end = start
	}
	return start, end, nil
}

var numberMethods = methodTable{
	"toFixed": func(*Interp) func(any, []any) (any, error) {
		return func(this any, args []any) (any, error) {
			f, _ := this.(float64)
			n, err := argNum(args, 0, 0)
			if err != nil {
				return nil, err
			}
			return strconv.FormatFloat(f, 'f', int(n), 64), nil
		}
	},
	"toString": func(*Interp) func(any, []any) (any, error) {
		return func(this any, args []any) (any, error) {
			f, _ := this.(float64)
			return formatJSNumber(f), nil
		}
	},
}

// arrayMethods is populated in init to break the initialization cycle through
// Interp.callValue.
var arrayMethods methodTable

func init() {
	arrayMethods = methodTable{
		"push": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			a.E = append(a.E, args...)
			return float64(len(a.E)), nil
		}),
		"pop": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			if len(a.E) == 0 {
				return Undefined{}, nil
			}
			v := a.E[len(a.E)-1]
			a.E = a.E[:len(a.E)-1]
			return v, nil
		}),
		"shift": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			if len(a.E) == 0 {
				return Undefined{}, nil
			}
			v := a.E[0]
			a.E = a.E[1:]
			return v, nil
		}),
		"unshift": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			a.E = append(append([]any{}, args...), a.E...)
			return float64(len(a.E)), nil
		}),
		"join": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			sep := ","
			if len(args) > 0 {
				if _, und := args[0].(Undefined); !und {
					sep = jsToString(args[0])
				}
			}
			parts := make([]string, len(a.E))
			for i, e := range a.E {
				if e == nil {
					continue
				}
				if _, und := e.(Undefined); und {
					continue
				}
				parts[i] = jsToString(e)
			}
			return strings.Join(parts, sep), nil
		}),
		"indexOf": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			want := arg(args, 0)
			for i, e := range a.E {
				if strictEq(e, want) {
					return float64(i), nil
				}
			}
			return float64(-1), nil
		}),
		"includes": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			want := arg(args, 0)
			for _, e := range a.E {
				if strictEq(e, want) {
					return true, nil
				}
			}
			return false, nil
		}),
		"slice": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			start, end, err := sliceBounds(len(a.E), args)
			if err != nil {
				return nil, err
			}
			out := &Array{E: append([]any{}, a.E[start:end]...)}
			return out, nil
		}),
		"concat": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			out := &Array{E: append([]any{}, a.E...)}
			for _, x := range args {
				if xa, ok := x.(*Array); ok {
					out.E = append(out.E, xa.E...)
				} else {
					out.E = append(out.E, x)
				}
			}
			return out, nil
		}),
		"reverse": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			for i, j := 0, len(a.E)-1; i < j; i, j = i+1, j-1 {
				a.E[i], a.E[j] = a.E[j], a.E[i]
			}
			return a, nil
		}),
		"map": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			out := &Array{E: make([]any, len(a.E))}
			for i, e := range a.E {
				v, err := ip.callValue(arg(args, 0), nil, []any{e, float64(i), a}, 0)
				if err != nil {
					return nil, err
				}
				out.E[i] = v
			}
			return out, nil
		}),
		"filter": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			out := &Array{}
			for i, e := range a.E {
				v, err := ip.callValue(arg(args, 0), nil, []any{e, float64(i), a}, 0)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					out.E = append(out.E, e)
				}
			}
			return out, nil
		}),
		"forEach": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			for i, e := range a.E {
				if _, err := ip.callValue(arg(args, 0), nil, []any{e, float64(i), a}, 0); err != nil {
					return nil, err
				}
			}
			return Undefined{}, nil
		}),
		"reduce": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			var acc any
			start := 0
			if len(args) > 1 {
				acc = args[1]
			} else {
				if len(a.E) == 0 {
					return nil, fmt.Errorf("reduce of empty array with no initial value")
				}
				acc = a.E[0]
				start = 1
			}
			for i := start; i < len(a.E); i++ {
				v, err := ip.callValue(arg(args, 0), nil, []any{acc, a.E[i], float64(i), a}, 0)
				if err != nil {
					return nil, err
				}
				acc = v
			}
			return acc, nil
		}),
		"some": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			for i, e := range a.E {
				v, err := ip.callValue(arg(args, 0), nil, []any{e, float64(i), a}, 0)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					return true, nil
				}
			}
			return false, nil
		}),
		"every": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			for i, e := range a.E {
				v, err := ip.callValue(arg(args, 0), nil, []any{e, float64(i), a}, 0)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					return false, nil
				}
			}
			return true, nil
		}),
		"find": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			for i, e := range a.E {
				v, err := ip.callValue(arg(args, 0), nil, []any{e, float64(i), a}, 0)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					return e, nil
				}
			}
			return Undefined{}, nil
		}),
		"flat": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			out := &Array{}
			for _, e := range a.E {
				if ea, ok := e.(*Array); ok {
					out.E = append(out.E, ea.E...)
				} else {
					out.E = append(out.E, e)
				}
			}
			return out, nil
		}),
		"sort": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			cmp := arg(args, 0)
			var sortErr error
			if _, und := cmp.(Undefined); und {
				sort.SliceStable(a.E, func(i, j int) bool {
					return jsToString(a.E[i]) < jsToString(a.E[j])
				})
			} else {
				sort.SliceStable(a.E, func(i, j int) bool {
					if sortErr != nil {
						return false
					}
					v, err := ip.callValue(cmp, nil, []any{a.E[i], a.E[j]}, 0)
					if err != nil {
						sortErr = err
						return false
					}
					n, err := toNumber(v)
					if err != nil {
						sortErr = err
						return false
					}
					return n < 0
				})
			}
			if sortErr != nil {
				return nil, sortErr
			}
			return a, nil
		}),
		"toString": arrMethod(func(ip *Interp, a *Array, args []any) (any, error) {
			return jsToString(a), nil
		}),
	}
}

func arrMethod(fn func(ip *Interp, a *Array, args []any) (any, error)) func(*Interp) func(any, []any) (any, error) {
	return func(ip *Interp) func(any, []any) (any, error) {
		return func(this any, args []any) (any, error) {
			a, ok := this.(*Array)
			if !ok {
				return nil, fmt.Errorf("array method on %s", typeName(this))
			}
			return fn(ip, a, args)
		}
	}
}
