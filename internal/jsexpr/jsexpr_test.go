package jsexpr

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/yamlx"
)

func evalX(t *testing.T, src string, vars map[string]any) any {
	t.Helper()
	v, err := New().EvalExpr(src, vars)
	if err != nil {
		t.Fatalf("EvalExpr(%q): %v", src, err)
	}
	return v
}

func TestLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"42", int64(42)},
		{"3.5", 3.5},
		{"0x10", int64(16)},
		{"1e3", int64(1000)},
		{`"hello"`, "hello"},
		{`'world'`, "world"},
		{`"a\nb"`, "a\nb"},
		{`"A"`, "A"},
		{"true", true},
		{"false", false},
		{"null", nil},
		{"undefined", nil}, // undefined converts to null at the boundary
	}
	for _, c := range cases {
		if got := evalX(t, c.src, nil); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"1 + 2", int64(3)},
		{"10 - 4", int64(6)},
		{"6 * 7", int64(42)},
		{"7 / 2", 3.5},
		{"7 % 3", int64(1)},
		{"2 ** 10", int64(1024)},
		{"1 + 2 * 3", int64(7)},
		{"(1 + 2) * 3", int64(9)},
		{"-5 + 3", int64(-2)},
		{"+\"3\" * 2", int64(6)},
	}
	for _, c := range cases {
		if got := evalX(t, c.src, nil); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestStringConcat(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`"a" + "b"`, "ab"},
		{`"n=" + 5`, "n=5"},
		{`1 + "2"`, "12"},
		{`"x" + null`, "xnull"},
		{`"x" + undefined`, "xundefined"},
		{`"v" + 1.5`, "v1.5"},
		{`"v" + 10.0`, "v10"}, // JS prints integral floats without decimal
	}
	for _, c := range cases {
		if got := evalX(t, c.src, nil); got != c.want {
			t.Errorf("%s = %#v, want %q", c.src, got, c.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{`"a" < "b"`, true},
		{"1 == 1", true},
		{`1 == "1"`, true},
		{`1 === "1"`, false},
		{"null == undefined", true},
		{"null === undefined", false},
		{"1 != 2", true},
		{"1 !== 1.0", false},
		{"true && false", false},
		{"true || false", true},
		{"!true", false},
		{`"" || "fallback"`, "fallback"},
		{`"x" && "y"`, "y"},
		{"1 < 2 ? 'yes' : 'no'", "yes"},
		{"typeof 1", "number"},
		{"typeof 'a'", "string"},
		{"typeof true", "boolean"},
		{"typeof undefined", "undefined"},
		{"typeof null", "object"},
		{"typeof [1]", "object"},
	}
	for _, c := range cases {
		if got := evalX(t, c.src, nil); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestVariablesFromContext(t *testing.T) {
	vars := map[string]any{
		"inputs": yamlx.MapOf(
			"message", "hello",
			"count", int64(3),
			"file", yamlx.MapOf("basename", "data.csv", "size", int64(100)),
			"list", []any{int64(1), int64(2), int64(3)},
		),
		"runtime": yamlx.MapOf("cores", int64(8)),
	}
	cases := []struct {
		src  string
		want any
	}{
		{"inputs.message", "hello"},
		{"inputs.count + 1", int64(4)},
		{"inputs.file.basename", "data.csv"},
		{"inputs.list[1]", int64(2)},
		{"inputs.list.length", int64(3)},
		{"runtime.cores * 2", int64(16)},
		{`inputs["message"]`, "hello"},
		{"inputs.missing", nil},
	}
	for _, c := range cases {
		if got := evalX(t, c.src, vars); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestStringMethods(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{`"hello".toUpperCase()`, "HELLO"},
		{`"HELLO".toLowerCase()`, "hello"},
		{`"  x  ".trim()`, "x"},
		{`"a,b,c".split(",").length`, int64(3)},
		{`"a,b,c".split(",")[1]`, "b"},
		{`"hello".indexOf("ll")`, int64(2)},
		{`"hello".includes("ell")`, true},
		{`"hello".startsWith("he")`, true},
		{`"hello".endsWith("lo")`, true},
		{`"data.csv".endsWith(".csv")`, true},
		{`"hello".slice(1, 3)`, "el"},
		{`"hello".slice(-3)`, "llo"},
		{`"hello".substring(3, 1)`, "el"},
		{`"hello".charAt(1)`, "e"},
		{`"hello".replace("l", "L")`, "heLlo"},
		{`"hello".replaceAll("l", "L")`, "heLLo"},
		{`"ab".repeat(3)`, "ababab"},
		{`"5".padStart(3, "0")`, "005"},
		{`"5".padEnd(3, "0")`, "500"},
		{`"hello".length`, int64(5)},
		{`"hello"[1]`, "e"},
		{`"a".concat("b", "c")`, "abc"},
		{`"hello".charCodeAt(0)`, int64(104)},
	}
	for _, c := range cases {
		if got := evalX(t, c.src, nil); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestArrayMethods(t *testing.T) {
	cases := []struct {
		src  string
		want string // JSON of result
	}{
		{"[1,2,3].map(function(x){ return x * 2; })", "[2,4,6]"},
		{"[1,2,3,4].filter(function(x){ return x % 2 == 0; })", "[2,4]"},
		{"[1,2,3].reduce(function(a,b){ return a + b; }, 0)", "6"},
		{"[1,2,3].reduce(function(a,b){ return a + b; })", "6"},
		{"[3,1,2].sort()", "[1,2,3]"},
		{"[3,1,2].sort(function(a,b){ return b - a; })", "[3,2,1]"},
		{"[1,2].concat([3,4])", "[1,2,3,4]"},
		{"[1,2,3].slice(1)", "[2,3]"},
		{"[1,2,3].reverse()", "[3,2,1]"},
		{"[[1,2],[3]].flat()", "[1,2,3]"},
		{`["a","b"].join("-")`, `"a-b"`},
		{"[1,2,3].indexOf(2)", "1"},
		{"[1,2,3].includes(4)", "false"},
		{"[1,2,3].some(function(x){ return x > 2; })", "true"},
		{"[1,2,3].every(function(x){ return x > 0; })", "true"},
		{"[1,2,3].find(function(x){ return x > 1; })", "2"},
		{"Array.isArray([1])", "true"},
		{"Array.isArray(1)", "false"},
		{"[1,2,3].length", "3"},
	}
	for _, c := range cases {
		got := evalX(t, c.src, nil)
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.src, err)
		}
		if string(b) != c.want {
			t.Errorf("%s = %s, want %s", c.src, b, c.want)
		}
	}
}

func TestArrowFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"[1,2,3].map(x => x + 1)", "[2,3,4]"},
		{"[1,2,3].map((x, i) => x * i)", "[0,2,6]"},
		{"[1,2,3].filter(x => x > 1).map(x => x * 10)", "[20,30]"},
	}
	for _, c := range cases {
		got := evalX(t, c.src, nil)
		b, _ := json.Marshal(got)
		if string(b) != c.want {
			t.Errorf("%s = %s, want %s", c.src, b, c.want)
		}
	}
}

func TestObjectLiteralsAndMethods(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"({a: 1, b: 2})", `{"a":1,"b":2}`},
		{"Object.keys({a: 1, b: 2})", `["a","b"]`},
		{"Object.values({a: 1, b: 2})", `[1,2]`},
		{"Object.entries({a: 1})", `[["a",1]]`},
		{"({x: {y: 3}}).x.y", "3"},
		{`({"quoted key": 7})["quoted key"]`, "7"},
	}
	for _, c := range cases {
		// Wrap bare object literals in parens at the source level.
		src := c.src
		got := evalX(t, src, nil)
		b, _ := json.Marshal(got)
		if string(b) != c.want {
			t.Errorf("%s = %s, want %s", src, b, c.want)
		}
	}
}

func TestMathAndGlobals(t *testing.T) {
	cases := []struct {
		src  string
		want any
	}{
		{"Math.floor(3.7)", int64(3)},
		{"Math.ceil(3.2)", int64(4)},
		{"Math.round(3.5)", int64(4)},
		{"Math.abs(-5)", int64(5)},
		{"Math.min(3, 1, 2)", int64(1)},
		{"Math.max(3, 1, 2)", int64(3)},
		{"Math.pow(2, 8)", int64(256)},
		{"Math.sqrt(16)", int64(4)},
		{`parseInt("42")`, int64(42)},
		{`parseInt("2f", 16)`, int64(47)},
		{`parseInt("42abc")`, int64(42)},
		{`parseFloat("3.5x")`, 3.5},
		{`isNaN("abc")`, true},
		{`isNaN("12")`, false},
		{`Number("12")`, int64(12)},
		{`String(12)`, "12"},
		{`Boolean("")`, false},
	}
	for _, c := range cases {
		if got := evalX(t, c.src, nil); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestJSONBuiltins(t *testing.T) {
	if got := evalX(t, `JSON.stringify({a: [1, "x"]})`, nil); got != `{"a":[1,"x"]}` {
		t.Errorf("stringify = %#v", got)
	}
	if got := evalX(t, `JSON.parse('{"k": [1, 2]}').k[1]`, nil); got != int64(2) {
		t.Errorf("parse = %#v", got)
	}
}

func TestEvalBody(t *testing.T) {
	ip := New()
	v, err := ip.EvalBody(`
		var total = 0;
		for (var i = 1; i <= 10; i++) {
			total += i;
		}
		return total;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(55) {
		t.Errorf("sum = %#v", v)
	}
}

func TestEvalBodyWithInputs(t *testing.T) {
	ip := New()
	vars := map[string]any{
		"inputs": yamlx.MapOf("files", []any{
			yamlx.MapOf("basename", "a.txt"),
			yamlx.MapOf("basename", "b.txt"),
		}),
	}
	v, err := ip.EvalBody(`
		var names = [];
		for (var f of inputs.files) {
			names.push(f.basename);
		}
		return names.join(" ");
	`, vars)
	if err != nil {
		t.Fatal(err)
	}
	if v != "a.txt b.txt" {
		t.Errorf("v = %#v", v)
	}
}

func TestEvalBodyNoReturn(t *testing.T) {
	v, err := New().EvalBody("var x = 1;", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Errorf("v = %#v, want nil", v)
	}
}

func TestExpressionLib(t *testing.T) {
	ip := New()
	err := ip.LoadLib(`
		function double(x) { return x * 2; }
		function greet(name) { return "Hello, " + name + "!"; }
		var BASE = 100;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ip.EvalExpr("double(21)", nil); err != nil || v != int64(42) {
		t.Errorf("double = %#v err=%v", v, err)
	}
	if v, err := ip.EvalExpr(`greet("CWL")`, nil); err != nil || v != "Hello, CWL!" {
		t.Errorf("greet = %#v err=%v", v, err)
	}
	if v, err := ip.EvalExpr("BASE + 1", nil); err != nil || v != int64(101) {
		t.Errorf("BASE = %#v err=%v", v, err)
	}
}

func TestClosures(t *testing.T) {
	ip := New()
	v, err := ip.EvalBody(`
		function makeAdder(n) {
			return function(x) { return x + n; };
		}
		var add5 = makeAdder(5);
		return add5(10);
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(15) {
		t.Errorf("v = %#v", v)
	}
}

func TestRecursion(t *testing.T) {
	ip := New()
	v, err := ip.EvalBody(`
		function fib(n) {
			if (n < 2) { return n; }
			return fib(n-1) + fib(n-2);
		}
		return fib(15);
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(610) {
		t.Errorf("fib(15) = %#v", v)
	}
}

func TestWhileBreakContinue(t *testing.T) {
	v, err := New().EvalBody(`
		var sum = 0;
		var i = 0;
		while (true) {
			i++;
			if (i > 10) { break; }
			if (i % 2 == 0) { continue; }
			sum += i;
		}
		return sum;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(25) { // 1+3+5+7+9
		t.Errorf("sum = %#v", v)
	}
}

func TestForInOverObject(t *testing.T) {
	v, err := New().EvalBody(`
		var keys = [];
		for (var k in obj) { keys.push(k); }
		return keys.join(",");
	`, map[string]any{"obj": yamlx.MapOf("a", 1, "b", 2, "c", 3)})
	if err != nil {
		t.Fatal(err)
	}
	if v != "a,b,c" {
		t.Errorf("keys = %#v", v)
	}
}

func TestThrow(t *testing.T) {
	_, err := New().EvalBody(`throw "boom";`, nil)
	te, ok := err.(*ThrownError)
	if !ok {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if te.Value != "boom" {
		t.Errorf("value = %#v", te.Value)
	}
}

func TestThrowNewError(t *testing.T) {
	_, err := New().EvalBody(`throw new Error("bad input");`, nil)
	if err == nil || !strings.Contains(err.Error(), "bad input") {
		t.Fatalf("err = %v", err)
	}
}

func TestInfiniteLoopBudget(t *testing.T) {
	ip := New()
	ip.maxSteps = 10_000
	_, err := ip.EvalBody("while (true) {}", nil)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v", err)
	}
}

func TestUndefinedVariableError(t *testing.T) {
	_, err := New().EvalExpr("nonexistent + 1", nil)
	if err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("err = %v", err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"1 +",
		"(1",
		"[1, 2",
		"function (",
		"{a: }",
		"'unterminated",
		"1 ~~ 2",
	}
	for _, src := range bad {
		if _, err := New().EvalExpr(src, nil); err == nil {
			t.Errorf("EvalExpr(%q) succeeded, want error", src)
		}
	}
}

func TestNullPropertyAccessError(t *testing.T) {
	_, err := New().EvalExpr("inputs.x.y", map[string]any{"inputs": yamlx.MapOf("x", nil)})
	if err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("err = %v", err)
	}
}

func TestAssignmentOps(t *testing.T) {
	v, err := New().EvalBody(`
		var x = 10;
		x += 5; x -= 3; x *= 2; x /= 4; x %= 4;
		return x;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(2) { // ((10+5-3)*2/4)%4 = 6%4 = 2
		t.Errorf("x = %#v", v)
	}
}

func TestIncDec(t *testing.T) {
	v, err := New().EvalBody(`
		var i = 0;
		var a = i++;
		var b = ++i;
		var c = i--;
		return [a, b, c, i];
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(v)
	if string(b) != "[0,2,2,1]" {
		t.Errorf("got %s", b)
	}
}

func TestObjectMutation(t *testing.T) {
	v, err := New().EvalBody(`
		var o = {};
		o.a = 1;
		o["b"] = 2;
		o.a += 10;
		return o;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(v)
	if string(b) != `{"a":11,"b":2}` {
		t.Errorf("got %s", b)
	}
}

func TestArrayIndexAssignGrows(t *testing.T) {
	v, err := New().EvalBody(`
		var a = [];
		a[2] = "x";
		return a.length;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(3) {
		t.Errorf("len = %#v", v)
	}
}

func TestInOperator(t *testing.T) {
	if got := evalX(t, `"a" in obj`, map[string]any{"obj": yamlx.MapOf("a", 1)}); got != true {
		t.Errorf("in = %#v", got)
	}
	if got := evalX(t, `"z" in obj`, map[string]any{"obj": yamlx.MapOf("a", 1)}); got != false {
		t.Errorf("in = %#v", got)
	}
}

func TestCWLRealisticExpressions(t *testing.T) {
	// Expressions of the kind found in real CWL documents.
	vars := map[string]any{
		"inputs": yamlx.MapOf(
			"input_file", yamlx.MapOf(
				"basename", "sample.fastq.gz",
				"nameroot", "sample.fastq",
				"nameext", ".gz",
				"size", int64(123456),
			),
			"threads", int64(4),
			"memory_gb", 2.5,
		),
		"runtime": yamlx.MapOf("cores", int64(16), "ram", int64(65536)),
		"self":    []any{yamlx.MapOf("path", "/out/result.txt")},
	}
	cases := []struct {
		src  string
		want any
	}{
		{`inputs.input_file.basename.split(".")[0]`, "sample"},
		{`inputs.input_file.nameroot + ".trimmed" + inputs.input_file.nameext`, "sample.fastq.trimmed.gz"},
		{"Math.min(inputs.threads, runtime.cores)", int64(4)},
		{"Math.ceil(inputs.memory_gb * 1024)", int64(2560)},
		{"self[0].path", "/out/result.txt"},
		{`inputs.input_file.size > 1000 ? "big" : "small"`, "big"},
	}
	for _, c := range cases {
		if got := evalX(t, c.src, vars); got != c.want {
			t.Errorf("%s = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestComments(t *testing.T) {
	v, err := New().EvalBody(`
		// line comment
		var x = 1; /* block
		comment */ var y = 2;
		return x + y;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(3) {
		t.Errorf("v = %#v", v)
	}
}

func TestNumberFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{1.5, "1.5"},
		{-3, "-3"},
		{0, "0"},
		{1e21, "1e+21"},
	}
	for _, c := range cases {
		if got := formatJSNumber(c.in); got != c.want {
			t.Errorf("formatJSNumber(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := formatJSNumber(math.NaN()); got != "NaN" {
		t.Errorf("NaN = %q", got)
	}
}

// Property: ToJS/FromJS round-trips the document vocabulary. Integers are
// restricted to int32 range: JS numbers are float64, so |n| > 2^53 loses
// precision by design.
func TestConversionRoundTripProperty(t *testing.T) {
	f := func(n32 int32, s string, b bool) bool {
		n := int64(n32)
		in := []any{n, s, b, nil, []any{n}, map[string]any{"k": s}}
		out := FromJS(ToJS(in))
		outs, ok := out.([]any)
		if !ok || len(outs) != 6 {
			return false
		}
		if outs[0] != n || outs[1] != s || outs[2] != b || outs[3] != nil {
			return false
		}
		inner, ok := outs[4].([]any)
		if !ok || len(inner) != 1 || inner[0] != n {
			return false
		}
		m, ok := outs[5].(*yamlx.Map)
		return ok && m.Value("k") == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: arithmetic on small integers matches Go semantics.
func TestArithmeticProperty(t *testing.T) {
	ip := New()
	f := func(a, b int16) bool {
		v, err := ip.EvalExpr("a + b * 2 - a % 7", map[string]any{
			"a": int64(a), "b": int64(b),
		})
		if err != nil {
			return false
		}
		want := int64(a) + int64(b)*2 - int64(a)%7
		got, ok := v.(int64)
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: string split+join round-trips when the separator is absent from
// the parts.
func TestSplitJoinProperty(t *testing.T) {
	ip := New()
	f := func(raw []string) bool {
		var parts []string
		for _, p := range raw {
			if !strings.Contains(p, "|") && isValidUTF8(p) && !strings.ContainsAny(p, "\"\\\x00") {
				parts = append(parts, p)
			}
		}
		if len(parts) == 0 {
			return true
		}
		s := strings.Join(parts, "|")
		v, err := ip.EvalExpr(`s.split("|").join("|")`, map[string]any{"s": s})
		if err != nil {
			return false
		}
		return v == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func isValidUTF8(s string) bool { return strings.ToValidUTF8(s, "") == s }

func TestPaperCapitalizeEquivalent(t *testing.T) {
	// The JS equivalent of the paper's Listing 5 capitalize_words function,
	// as cwltool would evaluate it with InlineJavascriptRequirement.
	ip := New()
	if err := ip.LoadLib(`
		function capitalizeWords(message) {
			return message.split(" ").map(function(w) {
				if (w.length == 0) { return w; }
				return w.charAt(0).toUpperCase() + w.slice(1).toLowerCase();
			}).join(" ");
		}
	`); err != nil {
		t.Fatal(err)
	}
	v, err := ip.EvalExpr("capitalizeWords(inputs.message)", map[string]any{
		"inputs": yamlx.MapOf("message", "hello cwl world"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != "Hello Cwl World" {
		t.Errorf("v = %#v", v)
	}
}

// TestJSCallDepthBound: unbounded recursion throws a RangeError at
// maxCallDepth instead of overflowing the Go stack, and recursion just under
// the bound still works.
func TestJSCallDepthBound(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("function f(n) { return f(n + 1); }\nfunction down(n) { return n == 0 ? 0 : down(n - 1) + 1; }"); err != nil {
		t.Fatal(err)
	}
	_, err := ip.EvalBody("return {out: f(0)};", nil)
	var thrown *ThrownError
	if !errors.As(err, &thrown) || !strings.Contains(err.Error(), "RangeError") {
		t.Fatalf("err = %v, want a thrown RangeError", err)
	}
	if v, err := ip.EvalExpr("down(n)", map[string]any{"n": maxCallDepth - 1}); err != nil || v != int64(maxCallDepth-1) {
		t.Fatalf("down(%d) = %v, %v", maxCallDepth-1, v, err)
	}
}

// TestJSNestingBound: deeply nested brackets, operators or statements fail
// to compile with a SyntaxError naming the bound, never a stack overflow;
// nesting at the bound compiles. Two million brackets overflowed the
// parser's stack before the bound; operator chains are built without
// recursion, so a shorter one shows the bound.
func TestJSNestingBound(t *testing.T) {
	const deep, chain = 2_000_000, 10_000
	for name, src := range map[string]string{
		"parens":  strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep),
		"arrays":  strings.Repeat("[", deep) + strings.Repeat("]", deep),
		"objects": strings.Repeat("{a: ", chain) + "1" + strings.Repeat("}", chain),
		"unary":   strings.Repeat("-", chain) + "1",
		"sum":     "1" + strings.Repeat("+1", chain),
		"or":      "1" + strings.Repeat("||1", chain),
		"calls":   "f" + strings.Repeat("()", chain),
		"members": "x" + strings.Repeat(".a", chain),
		"assign":  strings.Repeat("x = ", chain) + "1",
		"ternary": strings.Repeat("1 ? 1 : ", chain) + "1",
	} {
		_, err := CompileExpr(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nested more than") {
			t.Errorf("%s: err = %v, want the nesting SyntaxError", name, err)
		}
	}
	for name, src := range map[string]string{
		"blocks": strings.Repeat("{", deep) + strings.Repeat("}", deep),
		"ifs":    strings.Repeat("if (1) ", chain) + "x = 1;",
		"else":   "if (0) x = 1;" + strings.Repeat(" else if (0) x = 1;", chain),
	} {
		if _, err := CompileBody(src); err == nil || !strings.Contains(err.Error(), "nested more than") {
			t.Errorf("%s: err = %v, want the nesting SyntaxError", name, err)
		}
	}
	ok := strings.Repeat("(", maxNesting-1) + "1" + strings.Repeat(")", maxNesting-1)
	if v, err := New().EvalExpr(ok, nil); err != nil || v != int64(1) {
		t.Errorf("%d nested parens: %v, %v", maxNesting-1, v, err)
	}
}

// TestJSNonLetterRune: a rune that cannot start an identifier, or invalid
// UTF-8, is a syntax error; the lexer once looped forever on it.
func TestJSNonLetterRune(t *testing.T) {
	for _, src := range []string{"x€", "€", "\xc3f"} {
		if _, err := CompileExpr(src); err == nil {
			t.Errorf("CompileExpr(%q) succeeded", src)
		}
	}
}
