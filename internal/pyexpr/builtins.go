package pyexpr

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/yamlx"
)

// pyBinOp implements the arithmetic and sequence operators.
func pyBinOp(op string, l, r any, line int) (any, error) {
	// bool participates in arithmetic as 0/1.
	l = boolToInt(l)
	r = boolToInt(r)
	switch op {
	case "+":
		switch lv := l.(type) {
		case string:
			if rv, ok := r.(string); ok {
				return lv + rv, nil
			}
		case *List:
			if rv, ok := r.(*List); ok {
				return &List{E: slices.Concat(lv.E, rv.E)}, nil
			}
		case *Tuple:
			if rv, ok := r.(*Tuple); ok {
				return &Tuple{E: slices.Concat(lv.E, rv.E)}, nil
			}
		}
		return numOp(l, r, line, "+", func(a, b int64) (int64, error) {
			if c := a + b; (a^c)&(b^c) >= 0 {
				return c, nil
			}
			return 0, errOverflow(line)
		}, func(a, b float64) (float64, error) { return a + b, nil })
	case "-":
		return numOp(l, r, line, "-", func(a, b int64) (int64, error) {
			if c := a - b; (a^b)&(a^c) >= 0 {
				return c, nil
			}
			return 0, errOverflow(line)
		}, func(a, b float64) (float64, error) { return a - b, nil })
	case "*":
		if n, ok := l.(int64); ok {
			l, r = r, n // n * seq repeats like seq * n
		}
		if n, ok := r.(int64); ok {
			switch seq := l.(type) {
			case string:
				return repeatStr(seq, n)
			case *List:
				return repeatList(seq, n)
			}
		}
		return numOp(l, r, line, "*", func(a, b int64) (int64, error) { return mulInt(a, b, line) },
			func(a, b float64) (float64, error) { return a * b, nil })
	case "/":
		ln, lok := toFloat(l)
		rn, rok := toFloat(r)
		if !lok || !rok {
			return nil, errOperands("/", l, r, line)
		}
		if rn == 0 {
			return nil, raisef("ZeroDivisionError", "division by zero (line %d)", line)
		}
		return ln / rn, nil
	case "//":
		return numOp(l, r, line, "//", func(a, b int64) (int64, error) {
			switch {
			case b == 0:
				return 0, errZeroDivision(line)
			case a == math.MinInt64 && b == -1:
				return 0, errOverflow(line)
			}
			q := a / b
			if (a%b != 0) && ((a < 0) != (b < 0)) {
				q--
			}
			return q, nil
		}, func(a, b float64) (float64, error) {
			if b == 0 {
				return 0, errZeroDivision(line)
			}
			return math.Floor(a / b), nil
		})
	case "%":
		return numOp(l, r, line, "%", func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, errZeroDivision(line)
			}
			m := a % b
			if m != 0 && ((m < 0) != (b < 0)) {
				m += b
			}
			return m, nil
		}, func(a, b float64) (float64, error) {
			if b == 0 {
				return 0, errZeroDivision(line)
			}
			m := math.Mod(a, b)
			if m != 0 && ((m < 0) != (b < 0)) {
				m += b
			}
			return m, nil
		})
	case "**":
		if base, ok := l.(int64); ok {
			if exp, ok := r.(int64); ok && exp >= 0 {
				return powInt(base, exp, line)
			}
		}
		return numOp(l, r, line, "**", nil, func(a, b float64) (float64, error) {
			if a == 0 && b < 0 {
				return 0, raisef("ZeroDivisionError", "0.0 cannot be raised to a negative power (line %d)", line)
			}
			return math.Pow(a, b), nil
		})
	}
	return nil, fmt.Errorf("unsupported operator %q (line %d)", op, line)
}

func errZeroDivision(line int) error {
	return raisef("ZeroDivisionError", "integer division or modulo by zero (line %d)", line)
}

func errOperands(op string, l, r any, line int) error {
	return raisef("TypeError", "unsupported operand type(s) for %s: '%s' and '%s' (line %d)", op, pyTypeName(l), pyTypeName(r), line)
}

// mulInt multiplies, raising OverflowError past 64 bits.
func mulInt(a, b int64, line int) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	c := a * b
	if c/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, errOverflow(line)
	}
	return c, nil
}

// powInt raises base to a non-negative exponent by squaring.
func powInt(base, exp int64, line int) (int64, error) {
	out := int64(1)
	for {
		var err error
		if exp&1 == 1 {
			if out, err = mulInt(out, base, line); err != nil {
				return 0, err
			}
		}
		exp >>= 1
		if exp == 0 {
			return out, nil
		}
		if base, err = mulInt(base, base, line); err != nil {
			return 0, err
		}
	}
}

func boolToInt(v any) any {
	if b, ok := v.(bool); ok {
		if b {
			return int64(1)
		}
		return int64(0)
	}
	return v
}

func repeatStr(s string, n int64) (any, error) {
	n = max(n, 0)
	if n > 0 && int64(len(s)) > 100_000_000/n {
		return nil, raisef("OverflowError", "repeated string is too long")
	}
	return strings.Repeat(s, int(n)), nil
}

func repeatList(l *List, n int64) (any, error) {
	n = max(n, 0)
	if n > 0 && int64(len(l.E)) > 50_000_000/n {
		return nil, raisef("OverflowError", "repeated list is too long")
	}
	out := &List{E: make([]any, 0, int64(len(l.E))*n)}
	for i := int64(0); i < n; i++ {
		out.E = append(out.E, l.E...)
	}
	return out, nil
}

// numOp applies iop to two ints (when iop is set) and fop otherwise, after
// promoting ints to float.
func numOp(l, r any, line int, op string, iop func(a, b int64) (int64, error), fop func(a, b float64) (float64, error)) (any, error) {
	if li, ok := l.(int64); ok && iop != nil {
		if ri, ok := r.(int64); ok {
			return iop(li, ri)
		}
	}
	ln, lok := toFloat(l)
	rn, rok := toFloat(r)
	if !lok || !rok {
		return nil, errOperands(op, l, r, line)
	}
	return fop(ln, rn)
}

func toFloat(v any) (float64, bool) {
	switch x := boolToInt(v).(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// floatToInt truncates f toward zero, as int(f) does.
func floatToInt(f float64) (int64, error) {
	switch {
	case math.IsNaN(f):
		return 0, raisef("ValueError", "cannot convert float NaN to integer")
	case f >= math.MaxInt64 || f < math.MinInt64:
		return 0, raisef("OverflowError", "float %s does not fit in a 64-bit int", formatPyFloat(f))
	}
	return int64(f), nil
}

// pyCompare implements one link of a comparison chain.
func pyCompare(op string, l, r any, line int) (bool, error) {
	switch op {
	case "==":
		return pyEq(l, r), nil
	case "!=":
		return !pyEq(l, r), nil
	case "is":
		return pyIs(l, r), nil
	case "is not":
		return !pyIs(l, r), nil
	case "in":
		return pyContains(r, l, line)
	case "not in":
		ok, err := pyContains(r, l, line)
		return !ok, err
	}
	c, err := pyOrder(l, r, line)
	if err != nil {
		return false, err
	}
	switch op {
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	}
	return false, fmt.Errorf("unsupported comparison %q", op)
}

func pyIs(l, r any) bool {
	if l == nil || r == nil {
		return l == nil && r == nil
	}
	if lb, ok := l.(bool); ok {
		rb, ok2 := r.(bool)
		return ok2 && lb == rb
	}
	return l == r
}

func pyEq(l, r any) bool {
	if ln, ok := toFloat(l); ok {
		rn, ok := toFloat(r)
		if li, ok := boolToInt(l).(int64); ok {
			if ri, ok := boolToInt(r).(int64); ok {
				return li == ri
			}
		}
		return ok && ln == rn
	}
	switch lv := l.(type) {
	case nil:
		return r == nil
	case string:
		rv, ok := r.(string)
		return ok && lv == rv
	case *List:
		rv, ok := r.(*List)
		return ok && slices.EqualFunc(lv.E, rv.E, pyEq)
	case *Tuple:
		rv, ok := r.(*Tuple)
		return ok && slices.EqualFunc(lv.E, rv.E, pyEq)
	case *Dict:
		rv, ok := r.(*Dict)
		if !ok || lv.Len() != rv.Len() {
			return false
		}
		eq := true
		lv.Range(func(k string, v any) bool {
			rvv, has := rv.Get(k)
			eq = has && pyEq(v, rvv)
			return eq
		})
		return eq
	case *Exception:
		rv, ok := r.(*Exception)
		return ok && lv.Type == rv.Type && lv.Msg == rv.Msg
	}
	return l == r
}

func pyOrder(l, r any, line int) (int, error) {
	if li, ok := boolToInt(l).(int64); ok {
		if ri, ok := boolToInt(r).(int64); ok {
			return cmpOrder(li, ri), nil
		}
	}
	ln, lok := toFloat(l)
	rn, rok := toFloat(r)
	if lok && rok {
		return cmpOrder(ln, rn), nil
	}
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			return strings.Compare(ls, rs), nil
		}
	}
	la, laok := sequenceOf(l)
	ra, raok := sequenceOf(r)
	if laok && raok && pyTypeName(l) == pyTypeName(r) {
		for i := 0; i < len(la) && i < len(ra); i++ {
			if pyEq(la[i], ra[i]) {
				continue
			}
			return pyOrder(la[i], ra[i], line)
		}
		return cmpOrder(len(la), len(ra)), nil
	}
	return 0, raisef("TypeError", "'<' not supported between instances of '%s' and '%s' (line %d)", pyTypeName(l), pyTypeName(r), line)
}

func cmpOrder[T int | int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func pyContains(container, item any, line int) (bool, error) {
	switch c := container.(type) {
	case string:
		s, ok := item.(string)
		if !ok {
			return false, raisef("TypeError", "'in <string>' requires string as left operand (line %d)", line)
		}
		return strings.Contains(c, s), nil
	case *List:
		return slices.ContainsFunc(c.E, func(e any) bool { return pyEq(e, item) }), nil
	case *Tuple:
		return slices.ContainsFunc(c.E, func(e any) bool { return pyEq(e, item) }), nil
	case *Dict:
		ks, ok := item.(string)
		return ok && c.Has(ks), nil
	case rangeVal:
		n, ok := boolToInt(item).(int64)
		return ok && c.contains(n), nil
	}
	return false, raisef("TypeError", "argument of type '%s' is not iterable (line %d)", pyTypeName(container), line)
}

func pyGetItem(obj, key any, line int) (any, error) {
	if d, ok := obj.(*Dict); ok {
		if ks, ok := key.(string); ok && d.Has(ks) {
			return d.Value(ks), nil
		}
		return nil, raisef("KeyError", "%s (line %d)", pyRepr(key), line)
	}
	var n int
	var at func(int) any
	switch o := obj.(type) {
	case *List:
		n, at = len(o.E), func(i int) any { return o.E[i] }
	case *Tuple:
		n, at = len(o.E), func(i int) any { return o.E[i] }
	case string:
		runes := []rune(o)
		n, at = len(runes), func(i int) any { return string(runes[i]) }
	default:
		return nil, raisef("TypeError", "'%s' object is not subscriptable (line %d)", pyTypeName(obj), line)
	}
	i, ok := boolToInt(key).(int64)
	if !ok {
		return nil, raisef("TypeError", "%s indices must be integers, not %s (line %d)", pyTypeName(obj), pyTypeName(key), line)
	}
	idx, err := normIndex(i, n)
	if err != nil {
		return nil, err
	}
	return at(idx), nil
}

// getAttr resolves method lookups and, as a CWL convenience extension, dict
// item access via attribute syntax (File objects: f.basename).
func getAttr(obj any, name string, line int) (any, error) {
	var m pyMethod
	switch o := obj.(type) {
	case string:
		m = strMethods[name]
	case *List:
		if name == "append" {
			m = listAppend
		}
	case *Dict:
		m = dictMethods[name]
		if v, ok := o.Get(name); ok && m == nil {
			return v, nil
		}
	}
	if m == nil {
		return nil, raisef("AttributeError", "'%s' object has no attribute '%s' (line %d)", pyTypeName(obj), name, line)
	}
	return &boundPyMethod{name: name, recv: obj, fn: m}, nil
}

// pyMethod is a method of a str, list or dict, called on its receiver.
type pyMethod = func(recv any, args []any) (any, error)

// arity checks a call's positional argument count.
func arity(name string, args []any, least, most int) error {
	if len(args) < least || len(args) > most {
		return raisef("TypeError", "%s() takes %d to %d arguments (%d given)", name, least, most, len(args))
	}
	return nil
}

// strMethod adapts a str method taking between least and most arguments.
func strMethod(name string, least, most int, fn func(s string, args []any) (any, error)) pyMethod {
	return func(recv any, args []any) (any, error) {
		if err := arity(name, args, least, most); err != nil {
			return nil, err
		}
		return fn(recv.(string), args)
	}
}

func strArg(args []any, i int, name string) (string, error) {
	s, ok := args[i].(string)
	if !ok {
		return "", raisef("TypeError", "argument %q must be str, not %s", name, pyTypeName(args[i]))
	}
	return s, nil
}

// stripMethod builds strip/lstrip/rstrip: with no argument (or None) they
// trim whitespace, otherwise any of the given characters.
func stripMethod(name string, trimFunc func(string, func(rune) bool) string) pyMethod {
	return strMethod(name, 0, 1, func(s string, args []any) (any, error) {
		if len(args) == 0 || args[0] == nil {
			return trimFunc(s, unicode.IsSpace), nil
		}
		cut, err := strArg(args, 0, "chars")
		if err != nil {
			return nil, err
		}
		return trimFunc(s, func(r rune) bool { return strings.ContainsRune(cut, r) }), nil
	})
}

// affixMethod builds startswith/endswith over a str or a tuple of str.
func affixMethod(name string, has func(s, affix string) bool) pyMethod {
	return strMethod(name, 1, 1, func(s string, args []any) (any, error) {
		switch p := args[0].(type) {
		case string:
			return has(s, p), nil
		case *Tuple:
			for _, e := range p.E {
				es, ok := e.(string)
				if !ok {
					return nil, raisef("TypeError", "tuple for %s must only contain str", name)
				}
				if has(s, es) {
					return true, nil
				}
			}
			return false, nil
		}
		return nil, raisef("TypeError", "%s first arg must be str or a tuple of str", name)
	})
}

var strMethods = map[string]pyMethod{
	"upper": strMethod("upper", 0, 0, func(s string, _ []any) (any, error) { return strings.ToUpper(s), nil }),
	"lower": strMethod("lower", 0, 0, func(s string, _ []any) (any, error) { return strings.ToLower(s), nil }),
	"title": strMethod("title", 0, 0, func(s string, _ []any) (any, error) { return pyTitle(s), nil }),
	"capitalize": strMethod("capitalize", 0, 0, func(s string, _ []any) (any, error) {
		r, n := utf8.DecodeRuneInString(s)
		if n == 0 {
			return s, nil
		}
		return string(unicode.ToTitle(r)) + strings.ToLower(s[n:]), nil
	}),
	"strip":  stripMethod("strip", strings.TrimFunc),
	"lstrip": stripMethod("lstrip", strings.TrimLeftFunc),
	"rstrip": stripMethod("rstrip", strings.TrimRightFunc),
	"split": strMethod("split", 0, 2, func(s string, args []any) (any, error) {
		maxSplit := int64(-1)
		if len(args) > 1 {
			n, ok := boolToInt(args[1]).(int64)
			if !ok {
				return nil, raisef("TypeError", "maxsplit must be int")
			}
			maxSplit = n
		}
		var parts []string
		if len(args) == 0 || args[0] == nil {
			parts = splitWhitespace(s, maxSplit)
		} else {
			sep, err := strArg(args, 0, "sep")
			if err != nil {
				return nil, err
			}
			if sep == "" {
				return nil, raisef("ValueError", "empty separator")
			}
			n := -1
			if maxSplit >= 0 {
				n = int(min(maxSplit, math.MaxInt32)) + 1
			}
			parts = strings.SplitN(s, sep, n)
		}
		out := &List{E: make([]any, len(parts))}
		for i, p := range parts {
			out.E[i] = p
		}
		return out, nil
	}),
	"join": strMethod("join", 1, 1, func(sep string, args []any) (any, error) {
		items, err := iterValues(args[0], 0)
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(items))
		for i, it := range items {
			s, ok := it.(string)
			if !ok {
				return nil, raisef("TypeError", "sequence item %d: expected str instance, %s found", i, pyTypeName(it))
			}
			parts[i] = s
		}
		return strings.Join(parts, sep), nil
	}),
	"replace": strMethod("replace", 2, 3, func(s string, args []any) (any, error) {
		old, err := strArg(args, 0, "old")
		if err != nil {
			return nil, err
		}
		nw, err := strArg(args, 1, "new")
		if err != nil {
			return nil, err
		}
		count := int64(-1)
		if len(args) > 2 {
			n, ok := boolToInt(args[2]).(int64)
			if !ok {
				return nil, raisef("TypeError", "count must be int")
			}
			count = n
		}
		return strings.Replace(s, old, nw, int(max(count, -1))), nil
	}),
	"startswith": affixMethod("startswith", strings.HasPrefix),
	"endswith":   affixMethod("endswith", strings.HasSuffix),
	"find": strMethod("find", 1, 1, func(s string, args []any) (any, error) {
		sub, err := strArg(args, 0, "sub")
		if err != nil {
			return nil, err
		}
		i := strings.Index(s, sub)
		if i < 0 {
			return int64(-1), nil
		}
		return int64(utf8.RuneCountInString(s[:i])), nil
	}),
}

// splitWhitespace is str.split() with no separator: runs of whitespace
// separate fields, and at most maxSplit splits happen (all when negative).
func splitWhitespace(s string, maxSplit int64) []string {
	out := []string{}
	for {
		s = strings.TrimLeftFunc(s, unicode.IsSpace)
		if s == "" {
			return out
		}
		i := strings.IndexFunc(s, unicode.IsSpace)
		if i < 0 || int64(len(out)) == maxSplit {
			return append(out, s)
		}
		out = append(out, s[:i])
		s = s[i:]
	}
}

// pyTitle reproduces str.title(): capitalize the first letter of each run of
// letters, lowercase the rest.
func pyTitle(s string) string {
	var b strings.Builder
	prevLetter := false
	for _, r := range s {
		if unicode.IsLetter(r) {
			if prevLetter {
				b.WriteRune(unicode.ToLower(r))
			} else {
				b.WriteRune(unicode.ToTitle(r))
			}
			prevLetter = true
		} else {
			b.WriteRune(r)
			prevLetter = false
		}
	}
	return b.String()
}

func listAppend(recv any, args []any) (any, error) {
	if err := arity("append", args, 1, 1); err != nil {
		return nil, err
	}
	l := recv.(*List)
	l.E = append(l.E, args[0])
	return nil, nil
}

// dictView builds keys/values/items, which return lists here.
func dictView(name string, item func(d *Dict, k string) any) pyMethod {
	return func(recv any, args []any) (any, error) {
		if err := arity(name, args, 0, 0); err != nil {
			return nil, err
		}
		d := recv.(*Dict)
		out := &List{E: make([]any, 0, d.Len())}
		for _, k := range d.Keys() {
			out.E = append(out.E, item(d, k))
		}
		return out, nil
	}
}

var dictMethods = map[string]pyMethod{
	"get": func(recv any, args []any) (any, error) {
		if err := arity("get", args, 1, 2); err != nil {
			return nil, err
		}
		if ks, ok := args[0].(string); ok && recv.(*Dict).Has(ks) {
			return recv.(*Dict).Value(ks), nil
		}
		if len(args) > 1 {
			return args[1], nil
		}
		return nil, nil
	},
	"keys":   dictView("keys", func(_ *Dict, k string) any { return k }),
	"values": dictView("values", func(d *Dict, k string) any { return d.Value(k) }),
	"items":  dictView("items", func(d *Dict, k string) any { return &Tuple{E: []any{k, d.Value(k)}} }),
}

// exceptionTypes are the exception classes Python code may construct and
// raise.
var exceptionTypes = map[string]bool{
	"Exception": true, "ValueError": true, "TypeError": true, "KeyError": true,
	"IndexError": true, "RuntimeError": true, "ZeroDivisionError": true,
	"AttributeError": true, "NameError": true, "FileNotFoundError": true,
	"NotImplementedError": true, "OverflowError": true, "RecursionError": true,
}

// builtinFunc is a builtin's implementation; kwargs lists the keyword
// arguments it accepts, and "*" accepts any.
type builtinFunc struct {
	fn     func(args []any, kw map[string]any) (any, error)
	kwargs []string
}

var builtinFuncs = map[string]builtinFunc{
	"len": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("len", args, 1, 1); err != nil {
			return nil, err
		}
		n, ok := pyLen(args[0])
		switch {
		case !ok:
			return nil, raisef("TypeError", "object of type '%s' has no len()", pyTypeName(args[0]))
		case n > math.MaxInt64:
			return nil, raisef("OverflowError", "range length does not fit in 64 bits")
		}
		return int64(n), nil
	}},
	"str": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("str", args, 0, 1); err != nil || len(args) == 0 {
			return "", err
		}
		return pyStr(args[0]), nil
	}},
	"repr": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("repr", args, 1, 1); err != nil {
			return nil, err
		}
		return pyRepr(args[0]), nil
	}},
	"int": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("int", args, 0, 1); err != nil || len(args) == 0 {
			return int64(0), err
		}
		switch x := boolToInt(args[0]).(type) {
		case int64:
			return x, nil
		case float64:
			return floatToInt(x)
		case string:
			n, err := strconv.ParseInt(strings.ReplaceAll(strings.TrimSpace(x), "_", ""), 10, 64)
			if errors.Is(err, strconv.ErrRange) {
				return nil, raisef("OverflowError", "int(%s) does not fit in 64 bits", reprString(x))
			}
			if err != nil || strings.HasPrefix(x, "_") || strings.Contains(x, "__") {
				return nil, raisef("ValueError", "invalid literal for int() with base 10: %s", reprString(x))
			}
			return n, nil
		}
		return nil, raisef("TypeError", "int() argument must be a string or a number, not '%s'", pyTypeName(args[0]))
	}},
	"float": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("float", args, 0, 1); err != nil || len(args) == 0 {
			return 0.0, err
		}
		switch x := args[0].(type) {
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil && !errors.Is(err, strconv.ErrRange) {
				return nil, raisef("ValueError", "could not convert string to float: %s", reprString(x))
			}
			return f, nil
		}
		if f, ok := toFloat(args[0]); ok {
			return f, nil
		}
		return nil, raisef("TypeError", "float() argument must be a string or a number, not '%s'", pyTypeName(args[0]))
	}},
	"bool": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("bool", args, 0, 1); err != nil || len(args) == 0 {
			return false, err
		}
		return pyTruthy(args[0]), nil
	}},
	"abs": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("abs", args, 1, 1); err != nil {
			return nil, err
		}
		switch x := boolToInt(args[0]).(type) {
		case int64:
			if x == math.MinInt64 {
				return nil, errOverflow(0)
			}
			return max(x, -x), nil
		case float64:
			return math.Abs(x), nil
		}
		return nil, raisef("TypeError", "bad operand type for abs(): '%s'", pyTypeName(args[0]))
	}},
	"round": {fn: pyRound, kwargs: []string{"ndigits"}},
	"min":   {fn: extremum("min", -1)},
	"max":   {fn: extremum("max", 1)},
	"sum": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("sum", args, 1, 2); err != nil {
			return nil, err
		}
		items, err := iterValues(args[0], 0)
		if err != nil {
			return nil, err
		}
		var acc any = int64(0)
		if len(args) > 1 {
			acc = args[1]
		}
		for _, it := range items {
			if acc, err = pyBinOp("+", acc, it, 0); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}},
	"range": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("range", args, 1, 3); err != nil {
			return nil, err
		}
		var n [3]int64
		for i, a := range args {
			v, ok := boolToInt(a).(int64)
			if !ok {
				return nil, raisef("TypeError", "range() arguments must be integers, not '%s'", pyTypeName(a))
			}
			n[i] = v
		}
		switch len(args) {
		case 1:
			return rangeVal{0, n[0], 1}, nil
		case 2:
			return rangeVal{n[0], n[1], 1}, nil
		}
		if n[2] == 0 {
			return nil, raisef("ValueError", "range() arg 3 must not be zero")
		}
		return rangeVal{n[0], n[1], n[2]}, nil
	}},
	"enumerate": {fn: func(args []any, kw map[string]any) (any, error) {
		if err := arity("enumerate", args, 1, 2); err != nil {
			return nil, err
		}
		items, err := iterValues(args[0], 0)
		if err != nil {
			return nil, err
		}
		start, ok := kw["start"]
		if len(args) > 1 {
			start, ok = args[1], true
		}
		first := int64(0)
		if ok {
			if first, ok = boolToInt(start).(int64); !ok {
				return nil, raisef("TypeError", "enumerate() start must be an int, not '%s'", pyTypeName(start))
			}
		}
		out := &List{E: make([]any, len(items))}
		for i, it := range items {
			idx, err := pyBinOp("+", first, int64(i), 0)
			if err != nil {
				return nil, err
			}
			out.E[i] = &Tuple{E: []any{idx, it}}
		}
		return out, nil
	}, kwargs: []string{"start"}},
	"zip": {fn: func(args []any, _ map[string]any) (any, error) {
		seqs := make([][]any, len(args))
		for i, a := range args {
			items, err := iterValues(a, 0)
			if err != nil {
				return nil, err
			}
			seqs[i] = items
		}
		out := &List{}
		for i := 0; len(seqs) > 0 && !slices.ContainsFunc(seqs, func(s []any) bool { return i >= len(s) }); i++ {
			row := &Tuple{E: make([]any, len(seqs))}
			for j, s := range seqs {
				row.E[j] = s[i]
			}
			out.E = append(out.E, row)
		}
		return out, nil
	}},
	"sorted": {fn: func(args []any, kw map[string]any) (any, error) {
		if err := arity("sorted", args, 1, 1); err != nil {
			return nil, err
		}
		items, err := iterValues(args[0], 0)
		if err != nil {
			return nil, err
		}
		reverse := pyTruthy(kw["reverse"])
		var sortErr error
		sort.SliceStable(items, func(a, b int) bool {
			if sortErr != nil {
				return false
			}
			x, y := items[a], items[b]
			if reverse {
				x, y = y, x
			}
			c, err := pyOrder(x, y, 0)
			sortErr = err
			return c < 0
		})
		return &List{E: items}, sortErr
	}, kwargs: []string{"reverse"}},
	"list": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("list", args, 0, 1); err != nil || len(args) == 0 {
			return &List{}, err
		}
		items, err := iterValues(args[0], 0)
		return &List{E: items}, err
	}},
	"dict": {fn: func(args []any, kw map[string]any) (any, error) {
		if err := arity("dict", args, 0, 1); err != nil {
			return nil, err
		}
		d := yamlx.NewMap()
		if len(args) > 0 {
			if o, ok := args[0].(*Dict); ok {
				d = o.Clone()
			} else {
				items, err := iterValues(args[0], 0)
				if err != nil {
					return nil, err
				}
				for _, it := range items {
					pair, ok := sequenceOf(it)
					if !ok || len(pair) != 2 {
						return nil, raisef("TypeError", "dict() requires key/value pairs")
					}
					ks, err := dictKey(pair[0])
					if err != nil {
						return nil, err
					}
					d.Set(ks, pair[1])
				}
			}
		}
		for _, k := range sortedKeys(kw) {
			d.Set(k, kw[k])
		}
		return d, nil
	}, kwargs: []string{"*"}},
	"isinstance": {fn: func(args []any, _ map[string]any) (any, error) {
		if err := arity("isinstance", args, 2, 2); err != nil {
			return nil, err
		}
		name := pyTypeName(args[0])
		_, isExc := args[0].(*Exception)
		classes := []any{args[1]}
		if t, ok := args[1].(*Tuple); ok {
			classes = t.E
		}
		for _, cls := range classes {
			b, ok := cls.(*Builtin)
			if !ok {
				return nil, raisef("TypeError", "isinstance() arg 2 must be a type or tuple of types")
			}
			// bool is a subclass of int; every exception is an Exception.
			if b.Name == name || (b.Name == "int" && name == "bool") || (b.Name == "Exception" && isExc) {
				return true, nil
			}
		}
		return false, nil
	}},
}

func installPyBuiltins(g *penv) {
	for name, b := range builtinFuncs {
		g.vars[name] = &Builtin{Name: name, Fn: b.checked(name)}
	}
	// Exception classes: calling one constructs an Exception value.
	for name := range exceptionTypes {
		g.vars[name] = &Builtin{Name: name, Fn: func(args []any, kw map[string]any) (any, error) {
			if len(kw) > 0 {
				return nil, raisef("TypeError", "%s() takes no keyword arguments", name)
			}
			msg := ""
			if len(args) > 0 {
				msg = pyStr(args[0])
			}
			return &Exception{Type: name, Msg: msg}, nil
		}}
	}
}

// checked wraps the builtin to reject keyword arguments it does not take.
func (b builtinFunc) checked(name string) func([]any, map[string]any) (any, error) {
	return func(args []any, kw map[string]any) (any, error) {
		if !slices.Contains(b.kwargs, "*") {
			for k := range kw {
				if !slices.Contains(b.kwargs, k) {
					return nil, raisef("TypeError", "%s() got an unexpected keyword argument '%s'", name, k)
				}
			}
		}
		return b.fn(args, kw)
	}
}

// pyRound is round(x[, ndigits]): half to even, on the exact binary value
// of x. ndigits must not be negative.
func pyRound(args []any, kw map[string]any) (any, error) {
	if err := arity("round", args, 1, 2); err != nil {
		return nil, err
	}
	nd, hasND := kw["ndigits"]
	if len(args) > 1 {
		nd, hasND = args[1], true
	}
	x := boolToInt(args[0])
	if !hasND || nd == nil {
		switch v := x.(type) {
		case int64:
			return v, nil
		case float64:
			return floatToInt(math.RoundToEven(v))
		}
		return nil, raisef("TypeError", "type %s doesn't define __round__ method", pyTypeName(args[0]))
	}
	digits, ok := boolToInt(nd).(int64)
	if !ok {
		return nil, raisef("TypeError", "'%s' object cannot be interpreted as an integer", pyTypeName(nd))
	}
	if digits < 0 {
		return nil, raisef("ValueError", "round() with negative ndigits is outside the inline-Python subset")
	}
	switch v := x.(type) {
	case int64:
		return v, nil
	case float64:
		if math.IsInf(v, 0) || math.IsNaN(v) || digits > 400 {
			return v, nil
		}
		// FormatFloat rounds the exact binary value, ties to even.
		f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', int(digits), 64), 64)
		return f, nil
	}
	return nil, raisef("TypeError", "type %s doesn't define __round__ method", pyTypeName(args[0]))
}

// extremum builds min (sign -1) and max (sign 1): over one iterable
// argument, or over several arguments.
func extremum(name string, sign int) func(args []any, kw map[string]any) (any, error) {
	return func(args []any, _ map[string]any) (any, error) {
		items := args
		if len(args) == 1 {
			var err error
			if items, err = iterValues(args[0], 0); err != nil {
				return nil, err
			}
		}
		if len(items) == 0 {
			return nil, raisef("ValueError", "%s() arg is an empty sequence", name)
		}
		best := items[0]
		for _, it := range items[1:] {
			c, err := pyOrder(it, best, 0)
			if err != nil {
				return nil, err
			}
			if c == sign {
				best = it
			}
		}
		return best, nil
	}
}

// formatValue applies an f-string format spec.
func formatValue(v any, spec string) (string, error) {
	if spec == "" {
		return pyStr(v), nil
	}
	f, err := parseSpec(spec)
	if err != nil {
		return "", err
	}
	var body string
	switch x := v.(type) {
	case bool, int64:
		n := boolToInt(x).(int64)
		switch {
		case f.typ == 'f':
			body = formatFixed(float64(n), f.prec)
		case f.typ == 's':
			return "", errFormatCode(f.typ, v)
		case f.prec >= 0:
			return "", raisef("ValueError", "Precision not allowed in integer format specifier")
		default:
			body = strconv.FormatInt(n, 10)
		}
	case float64:
		switch {
		case f.typ == 'f':
			body = formatFixed(x, f.prec)
		case f.typ != 0:
			return "", errFormatCode(f.typ, v)
		case f.prec >= 0:
			return "", raisef("ValueError", "precision without a type for a float is outside the inline-Python subset; use 'f'")
		default:
			body = formatPyFloat(x)
		}
	case string:
		switch {
		case f.typ != 0 && f.typ != 's':
			return "", errFormatCode(f.typ, v)
		case f.align == '=':
			return "", raisef("ValueError", "'=' alignment not allowed in string format specifier")
		}
		body = x
		if r := []rune(x); f.prec >= 0 && f.prec < len(r) {
			body = string(r[:f.prec])
		}
	default:
		return "", raisef("TypeError", "unsupported format string passed to %s.__format__", pyTypeName(v))
	}
	return f.pad(body, isString(v)), nil
}

func isString(v any) bool {
	_, ok := v.(string)
	return ok
}

// pad aligns body in the spec's width: strings to the left and numbers to
// the right by default; the 0 flag fills with zeros after a number's sign.
func (f fmtSpec) pad(body string, str bool) string {
	if f.zero && f.fill == 0 {
		f.fill = '0'
		if f.align == 0 && !str {
			f.align = '='
		}
	}
	if f.fill == 0 {
		f.fill = ' '
	}
	if f.align == 0 {
		f.align = '>'
		if str {
			f.align = '<'
		}
	}
	pad := f.width - utf8.RuneCountInString(body)
	if pad <= 0 {
		return body
	}
	sign := ""
	if f.align == '=' && strings.HasPrefix(body, "-") {
		sign, body = "-", body[1:]
	}
	left := 0
	switch f.align {
	case '>', '=':
		left = pad
	case '^':
		left = pad / 2
	}
	fills := func(n int) string { return strings.Repeat(string(f.fill), n) }
	return sign + fills(left) + body + fills(pad-left)
}

func errFormatCode(typ rune, v any) error {
	return raisef("ValueError", "Unknown format code '%c' for object of type '%s'", typ, pyTypeName(v))
}

func formatFixed(f float64, prec int) string {
	if prec < 0 {
		prec = 6
	}
	return strconv.FormatFloat(f, 'f', prec, 64)
}

// fmtSpec is a parsed format spec; fill, align and typ are 0, and prec -1,
// when absent.
type fmtSpec struct {
	fill, align, typ rune
	zero             bool
	width, prec      int
}

// specRE is the subset's format spec grammar:
// [[fill]align][0][width][.precision][type] with type d, f or s.
var specRE = regexp.MustCompile(`^(?s:(.)?([<>^=]))?(0)?(\d*)(?:\.(\d+))?([dfs])?$`)

// maxWidth bounds a spec's width and precision.
const maxWidth = 1 << 20

func parseSpec(spec string) (fmtSpec, error) {
	m := specRE.FindStringSubmatch(spec)
	if m == nil {
		return fmtSpec{}, raisef("ValueError", "format spec %s is outside the inline-Python subset", reprString(spec))
	}
	first := func(s string) rune {
		for _, r := range s {
			return r
		}
		return 0
	}
	number := func(s string, absent int) (int, error) {
		if s == "" {
			return absent, nil
		}
		n, err := strconv.Atoi(s)
		if err != nil || n > maxWidth {
			return 0, raisef("ValueError", "format spec %s: %s is too large", reprString(spec), s)
		}
		return n, nil
	}
	f := fmtSpec{fill: first(m[1]), align: first(m[2]), zero: m[3] != "", typ: first(m[6])}
	var err error
	if f.width, err = number(m[4], 0); err == nil {
		f.prec, err = number(m[5], -1)
	}
	return f, err
}
