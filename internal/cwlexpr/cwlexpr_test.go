package cwlexpr

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cwl"
	"repro/internal/jsexpr"
	"repro/internal/pyexpr"
	"repro/internal/yamlx"
)

func fileObj(path string) *yamlx.Map {
	m := yamlx.NewMap()
	m.Set("class", "File")
	m.Set("path", path)
	return m
}

func testCtx() Context {
	return Context{
		Inputs: yamlx.MapOf(
			"message", "hello world",
			"count", int64(3),
			"flag", true,
			"data_file", fileObj("/data/input.csv"),
			"names", []any{"a", "b", "c"},
			"with space", "spaced",
		),
		Runtime: yamlx.MapOf("cores", int64(8), "outdir", "/out"),
	}
}

func plainEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(cwl.Requirements{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func jsEngine(t *testing.T, lib ...string) *Engine {
	t.Helper()
	e, err := NewEngine(cwl.Requirements{InlineJavascript: true, JSExpressionLib: lib})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func pyEngine(t *testing.T, lib ...string) *Engine {
	t.Helper()
	e, err := NewEngine(cwl.Requirements{InlinePython: true, PyExpressionLib: lib})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParamRefsNoEngine(t *testing.T) {
	e := plainEngine(t)
	ctx := testCtx()
	cases := []struct {
		src  string
		want any
	}{
		{"$(inputs.message)", "hello world"},
		{"$(inputs.count)", int64(3)},
		{"$(inputs.flag)", true},
		{"$(runtime.cores)", int64(8)},
		{"$(inputs.names[1])", "b"},
		{`$(inputs["with space"])`, "spaced"},
		{"$(inputs.data_file.path)", "/data/input.csv"},
		{"$(inputs.data_file.basename)", "input.csv"},
		{"$(inputs.data_file.nameroot)", "input"},
		{"$(inputs.data_file.nameext)", ".csv"},
		{"$(inputs.data_file.dirname)", "/data"},
		{"$(inputs.missing)", nil},
	}
	for _, c := range cases {
		got, err := e.Eval(c.src, ctx)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %#v, want %#v", c.src, got, c.want)
		}
	}
}

func TestInterpolation(t *testing.T) {
	e := plainEngine(t)
	ctx := testCtx()
	cases := []struct {
		src  string
		want string
	}{
		{"prefix-$(inputs.message)-suffix", "prefix-hello world-suffix"},
		{"n=$(inputs.count)", "n=3"},
		{"$(inputs.count)x$(runtime.cores)", "3x8"},
		{"file: $(inputs.data_file)", "file: /data/input.csv"},
		{"no expressions here", "no expressions here"},
		{`escaped \$(inputs.message)`, "escaped $(inputs.message)"},
	}
	for _, c := range cases {
		got, err := e.Eval(c.src, ctx)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %#v, want %q", c.src, got, c.want)
		}
	}
}

func TestComplexExprRequiresEngine(t *testing.T) {
	e := plainEngine(t)
	_, err := e.Eval("$(inputs.count + 1)", testCtx())
	if err == nil || !strings.Contains(err.Error(), "Requirement") {
		t.Fatalf("err = %v", err)
	}
	_, err = e.Eval("${ return 1; }", testCtx())
	if err == nil || !strings.Contains(err.Error(), "InlineJavascriptRequirement") {
		t.Fatalf("body err = %v", err)
	}
}

func TestJSExpressions(t *testing.T) {
	e := jsEngine(t)
	ctx := testCtx()
	js0 := metJSEvals.Value()
	cases := []struct {
		src  string
		want any
	}{
		{"$(inputs.count + 1)", int64(4)},
		{"$(inputs.message.toUpperCase())", "HELLO WORLD"},
		{"$(inputs.names.length)", int64(3)},
		{"${ return inputs.count * runtime.cores; }", int64(24)},
		{"$(inputs.flag ? 'yes' : 'no')", "yes"},
	}
	for _, c := range cases {
		got, err := e.Eval(c.src, ctx)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %#v, want %#v", c.src, got, c.want)
		}
	}
	if metJSEvals.Value() == js0 {
		t.Error("JS evaluation counter not incremented")
	}
}

func TestJSExpressionLib(t *testing.T) {
	e := jsEngine(t, "function tripled(x) { return x * 3; }")
	got, err := e.Eval("$(tripled(inputs.count))", testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(9) {
		t.Errorf("got %#v", got)
	}
}

func TestPaperFStringCapitalize(t *testing.T) {
	// Paper Listing 5: the argument f-string.
	e := pyEngine(t, `
def capitalize_words(message):
    return message.title()
`)
	py0 := metPyEvals.Value()
	got, err := e.Eval(`f"{capitalize_words($(inputs.message))}"`, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got != "Hello World" {
		t.Errorf("got %#v", got)
	}
	if n := metPyEvals.Value() - py0; n != 1 {
		t.Errorf("Python evaluations = %d, want 1", n)
	}
}

func TestPaperValidateAccepts(t *testing.T) {
	// Paper Listing 6: valid file passes, invalid raises.
	lib := `
def valid_file(file, ext):
    if not file.lower().endswith(ext):
        raise Exception(f"Invalid file. Expected '{ext}'")
`
	e := pyEngine(t, lib)
	err := e.RunValidate(`f"{valid_file($(inputs.data_file), '.csv')}"`, testCtx())
	if err != nil {
		t.Fatalf("csv rejected: %v", err)
	}
	badCtx := testCtx()
	badCtx.Inputs.Set("data_file", fileObj("/data/input.txt"))
	err = e.RunValidate(`f"{valid_file($(inputs.data_file), '.csv')}"`, badCtx)
	if err == nil || !strings.Contains(err.Error(), "Expected '.csv'") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRequiresPython(t *testing.T) {
	e := plainEngine(t)
	err := e.RunValidate(`f"{check($(inputs.count))}"`, testCtx())
	if err == nil || !strings.Contains(err.Error(), "InlinePythonRequirement") {
		t.Fatalf("err = %v", err)
	}
}

func TestPythonDollarExprExtension(t *testing.T) {
	// With only InlinePythonRequirement, complex $() bodies evaluate as Python.
	e := pyEngine(t)
	got, err := e.Eval("$(inputs.count + 1)", testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(4) {
		t.Errorf("got %#v", got)
	}
}

func TestFStringFileBecomesPath(t *testing.T) {
	e := pyEngine(t)
	got, err := e.Eval(`f"{$(inputs.data_file).upper()}"`, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got != "/DATA/INPUT.CSV" {
		t.Errorf("got %#v", got)
	}
}

func TestValueToString(t *testing.T) {
	cases := []struct {
		in   any
		want string
	}{
		{"s", "s"},
		{int64(42), "42"},
		{3.5, "3.5"},
		{4.0, "4"},
		{true, "true"},
		{false, "false"},
		{nil, "null"},
		{fileObj("/a/b.txt"), "/a/b.txt"},
		{[]any{int64(1), "x"}, `[1,"x"]`},
		{yamlx.MapOf("k", int64(1)), `{"k":1}`},
	}
	for _, c := range cases {
		if got := ValueToString(c.in); got != c.want {
			t.Errorf("ValueToString(%#v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNeedsEval(t *testing.T) {
	cases := map[string]bool{
		"plain":               false,
		"$(inputs.x)":         true,
		"${ return 1; }":      true,
		`f"{f($(inputs.x))}"`: true,
		"a $(inputs.x) b":     true,
		"cost is $5":          false,
	}
	for s, want := range cases {
		if got := NeedsEval(s); got != want {
			t.Errorf("NeedsEval(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestUnbalancedInterpolation(t *testing.T) {
	e := plainEngine(t)
	if _, err := e.Eval("$(inputs.x", testCtx()); err == nil {
		t.Fatal("expected unbalanced error")
	}
}

func TestSelfContext(t *testing.T) {
	e := plainEngine(t)
	ctx := Context{Self: []any{fileObj("/out/result.txt")}}
	got, err := e.Eval("$(self[0].basename)", ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != "result.txt" {
		t.Errorf("got %#v", got)
	}
}

func TestEngineErrorsPropagate(t *testing.T) {
	e := jsEngine(t)
	_, err := e.Eval("$(undefined_function())", testCtx())
	if err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("err = %v", err)
	}
	pe := pyEngine(t)
	_, err = pe.Eval(`f"{missing($(inputs.count))}"`, testCtx())
	if err == nil {
		t.Fatal("expected python error")
	}
}

func TestBadExpressionLib(t *testing.T) {
	if _, err := NewEngine(cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"function ("}}); err == nil {
		t.Error("bad JS lib accepted")
	}
	if _, err := NewEngine(cwl.Requirements{InlinePython: true, PyExpressionLib: []string{"def f(:"}}); err == nil {
		t.Error("bad Python lib accepted")
	}
}

func TestNestedParensInRef(t *testing.T) {
	e := jsEngine(t)
	got, err := e.Eval("$(Math.max(inputs.count, (1 + 2)))", testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(3) {
		t.Errorf("got %#v", got)
	}
}

func TestInterpolationWithJSON(t *testing.T) {
	e := plainEngine(t)
	got, err := e.Eval("names: $(inputs.names)", testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if got != `names: ["a","b","c"]` {
		t.Errorf("got %#v", got)
	}
}

// TestPythonUnsupportedPassesThrough: Python outside the inline-Python
// subset reaches the caller as *pyexpr.UnsupportedError naming the
// construct: from an expressionLib when the engine is built, and from an
// expression or a validate: field when it is evaluated.
func TestPythonUnsupportedPassesThrough(t *testing.T) {
	check := func(what string, err error, construct string) {
		t.Helper()
		var ue *pyexpr.UnsupportedError
		if !errors.As(err, &ue) || ue.Construct != construct || !strings.Contains(err.Error(), construct) {
			t.Errorf("%s: err = %v, want UnsupportedError for %q", what, err, construct)
		}
	}
	_, err := NewEngine(cwl.Requirements{InlinePython: true, PyExpressionLib: []string{"def f(x):\n    while x:\n        x -= 1\n"}})
	check("expressionLib", err, "while loop")
	_, err = SharedEngine(cwl.Requirements{InlinePython: true, PyExpressionLib: []string{"import os\n"}})
	check("shared expressionLib", err, "import statement")
	e := pyEngine(t)
	_, err = e.Eval(`f"{(lambda: 1)()}"`, testCtx())
	check("f-string", err, "lambda")
	_, err = e.Eval("$({1, 2})", testCtx())
	check("$() expression", err, "set literal")
	check("validate", e.RunValidate(`f"{[x for x in [1] for y in [2]]}"`, testCtx()), "comprehension with several clauses")
}

// TestExpressionBounds puts each evaluation and parse bound through both
// languages: the step budget, the call depth and the nesting bound. Each
// fails with the language's own error, and the error's text is the one
// each interpreter has always reported.
func TestExpressionBounds(t *testing.T) {
	deep := strings.Repeat("(", 201) + "1" + strings.Repeat(")", 201)
	js := func(lib string) *Engine {
		e, err := NewEngine(cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{lib}})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	py := func(lib string) *Engine {
		e, err := NewEngine(cwl.Requirements{InlinePython: true, PyExpressionLib: []string{lib}})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, c := range []struct {
		name string
		e    *Engine
		src  string
		exc  string // the exception type raised, if one is
		want string // the end of the error's text
	}{
		{"js steps", js(""), "${ while (true) {} }", "",
			"javascript evaluation exceeded 5000000 steps (offset 8): possible infinite loop"},
		{"py steps", py("def spin():\n    for i in range(10 ** 18):\n        pass\n"), "$(spin())", "",
			"python evaluation exceeded 5000000 steps (line 2): possible infinite loop"},
		{"js call depth", js("function f(n) { return f(n + 1); }"), "$(f(0))", "RangeError",
			"javascript exception: RangeError: Maximum call stack size exceeded"},
		{"py call depth", py("def f(n):\n    return f(n + 1)\n"), "$(f(0))", "RecursionError",
			"python exception: RecursionError: maximum recursion depth exceeded (line 2)"},
		{"js nesting", js(""), "$(" + deep + ")", "",
			"javascript syntax error at offset 200: expression nested more than 200 levels deep"},
		{"py nesting", py(""), "$(" + deep + ")", "",
			"python syntax error at line 1: expression nested more than 200 levels deep"},
	} {
		_, err := c.e.Eval(c.src, testCtx())
		if err == nil || !strings.HasSuffix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to end %q", c.name, err, c.want)
			continue
		}
		var thrown *jsexpr.ThrownError
		var raised *pyexpr.Raised
		switch {
		case c.exc == "":
		case errors.As(err, &thrown):
			if name := thrown.Value.(*yamlx.Map).GetString("name"); name != c.exc {
				t.Errorf("%s: threw %s, want %s", c.name, name, c.exc)
			}
		case errors.As(err, &raised):
			if raised.Exc.Type != c.exc {
				t.Errorf("%s: raised %s, want %s", c.name, raised.Exc.Type, c.exc)
			}
		default:
			t.Errorf("%s: err = %T, want a %s", c.name, err, c.exc)
		}
	}
}
