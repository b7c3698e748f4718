package pyexpr

import (
	"bufio"
	"errors"
	"math"
	"math/big"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/yamlx"
)

// goldenRow is one row of testdata/cpython.txt.
type goldenRow struct {
	section, src, want string
	line               int
}

// bodyMarker stands for a newline in a golden row's source; a source
// containing it is a statement block rather than an expression.
const bodyMarker = "⏎"

func loadGolden(t testing.TB) []goldenRow {
	t.Helper()
	f, err := os.Open("testdata/cpython.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []goldenRow
	section := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			section = strings.TrimPrefix(line, "## ")
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			src, want, ok := strings.Cut(line, "\t")
			if !ok {
				t.Fatalf("cpython.txt:%d: no tab in %q", n, line)
			}
			rows = append(rows, goldenRow{section: section, src: src, want: want, line: n})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// compileRow compiles a golden source as CompileBody or CompileExpr.
func compileRow(src string) (*Program, error) {
	if strings.Contains(src, bodyMarker) {
		return CompileBody(strings.ReplaceAll(src, bodyMarker, "\n"))
	}
	return CompileExpr(src)
}

// outcome runs src on a fresh interpreter and renders the result as a
// golden WANT: the repr of the value, or "!Type" for an error.
func outcome(src string) string {
	p, err := compileRow(src)
	if err == nil {
		var v any
		if v, err = New().run(p, nil); err == nil {
			return pyRepr(v)
		}
	}
	var unsupported *UnsupportedError
	var syntax *SyntaxError
	var raised *Raised
	switch {
	case errors.As(err, &unsupported):
		return "!UnsupportedError"
	case errors.As(err, &syntax):
		return "!SyntaxError"
	case errors.As(err, &raised):
		return "!" + raised.Exc.Type
	}
	return "!" + err.Error()
}

// runGolden checks the rows of one section, or every row when section is
// empty.
func runGolden(t *testing.T, section string) {
	t.Helper()
	n := 0
	for _, r := range loadGolden(t) {
		if section != "" && r.section != section {
			continue
		}
		n++
		if got, want := outcome(r.src), strings.TrimPrefix(r.want, "~"); got != want {
			t.Errorf("cpython.txt:%d [%s] %s\n got  %s\n want %s", r.line, r.section, r.src, got, want)
		}
	}
	if n == 0 {
		t.Fatalf("no golden rows in section %q", section)
	}
}

// TestCPythonGolden pins every row of testdata/cpython.txt: each entry of
// the README's subset table evaluates as CPython 3.11 does, and each
// construct outside it fails as the row says. The rows' answers come from
// CPython; regenerate them from internal/pyexpr with
//
//	python3 testdata/gen_cpython.py testdata/cpython.txt
//
// Rows marked "~" are the subset's deliberate divergences and are kept.
func TestCPythonGolden(t *testing.T) { runGolden(t, "") }

func TestPyLiterals(t *testing.T)               { runGolden(t, "literals") }
func TestPyArithmetic(t *testing.T)             { runGolden(t, "arithmetic") }
func TestPyDivisionByZero(t *testing.T)         { runGolden(t, "division by zero") }
func TestPyComparisons(t *testing.T)            { runGolden(t, "comparisons") }
func TestPyTernaryAndLambda(t *testing.T)       { runGolden(t, "ternary and lambda") }
func TestPyStringMethods(t *testing.T)          { runGolden(t, "str methods") }
func TestPyFStrings(t *testing.T)               { runGolden(t, "f-strings") }
func TestPyListsAndDicts(t *testing.T)          { runGolden(t, "lists and dicts") }
func TestPyBuiltinConversions(t *testing.T)     { runGolden(t, "builtins") }
func TestPyControlFlow(t *testing.T)            { runGolden(t, "control flow") }
func TestPyElifChain(t *testing.T)              { runGolden(t, "if elif else") }
func TestPyTupleUnpack(t *testing.T)            { runGolden(t, "tuple unpack") }
func TestPyRaiseAndCatch(t *testing.T)          { runGolden(t, "raise") }
func TestPyRuntimeErrorsCatchable(t *testing.T) { runGolden(t, "runtime errors") }
func TestPySortStability(t *testing.T)          { runGolden(t, "sort stability") }
func TestPyListMutation(t *testing.T)           { runGolden(t, "list mutation") }
func TestPyDictMutation(t *testing.T)           { runGolden(t, "dict mutation") }

// TestPyWhile pins that while loops are outside the subset: a loop is a
// for over a finite iterable.
func TestPyWhile(t *testing.T) { runGolden(t, "while") }

// TestPyFinally and TestPyExceptHierarchy pin that try statements are
// outside the subset: an exception always ends the evaluation.
func TestPyFinally(t *testing.T)         { runGolden(t, "try finally") }
func TestPyExceptHierarchy(t *testing.T) { runGolden(t, "try except") }

// TestUnsupportedSyntaxAtCompile checks that every construct outside the
// subset fails in CompileBody, CompileExpr or LoadLib, before anything runs,
// with the construct and its line.
func TestUnsupportedSyntaxAtCompile(t *testing.T) {
	for _, r := range loadGolden(t) {
		if r.want != "~!UnsupportedError" {
			continue
		}
		_, err := compileRow(r.src)
		var ue *UnsupportedError
		if !errors.As(err, &ue) || ue.Construct == "" || ue.Line < 1 {
			t.Errorf("cpython.txt:%d %s: compile error %v, want *UnsupportedError", r.line, r.src, err)
		}
	}
	err := New().LoadLib("X = 1\nwhile X:\n    X = 0\n")
	var ue *UnsupportedError
	if !errors.As(err, &ue) || ue.Construct != "while loop" || ue.Line != 2 {
		t.Errorf("LoadLib: err = %v, want UnsupportedError for the while loop on line 2", err)
	}
}

func runExpr(ip *Interp, src string, vars map[string]any) (any, error) {
	p, err := CompileExpr(src)
	if err != nil {
		return nil, err
	}
	return ip.RunProgram(p, vars)
}

func runBody(ip *Interp, src string, vars map[string]any) (any, error) {
	p, err := CompileBody(src)
	if err != nil {
		return nil, err
	}
	return ip.RunProgram(p, vars)
}

func TestPyIntError(t *testing.T) {
	_, err := runExpr(New(), `int("abc")`, nil)
	r, ok := err.(*Raised)
	if !ok || r.Exc.Type != "ValueError" {
		t.Fatalf("err = %v", err)
	}
	_, err = runExpr(New(), `int("99999999999999999999")`, nil)
	if r, ok := err.(*Raised); !ok || r.Exc.Type != "OverflowError" {
		t.Fatalf("err = %v, want OverflowError", err)
	}
}

func TestPyDefAndCall(t *testing.T) {
	ip := New()
	err := ip.LoadLib(`
def double(x):
    return x * 2

def greet(name, punct="!"):
    return "Hello, " + name + punct

BASE = 100
`)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := runExpr(ip, "double(21)", nil); err != nil || v != int64(42) {
		t.Errorf("double = %#v err=%v", v, err)
	}
	if v, err := runExpr(ip, `greet("CWL")`, nil); err != nil || v != "Hello, CWL!" {
		t.Errorf("greet = %#v err=%v", v, err)
	}
	if v, err := runExpr(ip, `greet("CWL", punct="?")`, nil); err != nil || v != "Hello, CWL?" {
		t.Errorf("greet kw = %#v err=%v", v, err)
	}
	if v, err := runExpr(ip, "BASE + 1", nil); err != nil || v != int64(101) {
		t.Errorf("BASE = %#v err=%v", v, err)
	}
}

// TestPyCallAPI calls library functions the way cwlexpr does: a compiled
// call expression run against the library's interpreter.
func TestPyCallAPI(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("def add(a, b):\n    return a + b\n"); err != nil {
		t.Fatal(err)
	}
	v, err := runExpr(ip, "add(a, b)", map[string]any{"a": 2, "b": int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(5) {
		t.Errorf("v = %#v", v)
	}
	_, err = runExpr(ip, "missing(1)", nil)
	if r, ok := err.(*Raised); !ok || r.Exc.Type != "NameError" {
		t.Errorf("missing function: err = %v, want NameError", err)
	}
}

func TestPyRecursion(t *testing.T) {
	v, err := runBody(New(), "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nreturn fib(15)\n", nil)
	if err != nil || v != int64(610) {
		t.Errorf("fib = %#v err = %v", v, err)
	}
}

// TestPyCallDepthBound: unbounded recursion raises RecursionError at
// maxCallDepth instead of overflowing the Go stack, and recursion just
// under the bound still works.
func TestPyCallDepthBound(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("def f(n):\n    return f(n + 1)\ndef down(n):\n    if n == 0:\n        return 0\n    return down(n - 1) + 1\n"); err != nil {
		t.Fatal(err)
	}
	_, err := runExpr(ip, "f(0)", nil)
	if r, ok := err.(*Raised); !ok || r.Exc.Type != "RecursionError" {
		t.Fatalf("err = %v, want RecursionError", err)
	}
	if v, err := runExpr(ip, "down(n)", map[string]any{"n": maxCallDepth - 1}); err != nil || v != int64(maxCallDepth-1) {
		t.Fatalf("down(%d) = %v, %v", maxCallDepth-1, v, err)
	}
}

// TestPyNestingBound: deeply nested brackets, operators or blocks fail to
// compile with a SyntaxError naming the bound, never a stack overflow;
// nesting at the bound compiles. Two million brackets overflowed the
// parser's stack before the bound; operator chains are built without
// recursion, so a shorter one shows the bound.
func TestPyNestingBound(t *testing.T) {
	const deep, chain = 2_000_000, 10_000
	for name, src := range map[string]string{
		"parens":   strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep),
		"lists":    strings.Repeat("[", deep) + strings.Repeat("]", deep),
		"f-string": `f"{` + strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep) + `}"`,
		"unary":    strings.Repeat("-", chain) + "1",
		"not":      strings.Repeat("not ", chain) + "1",
		"sum":      "1" + strings.Repeat("+1", chain),
		"calls":    "f" + strings.Repeat("()", chain),
		"attrs":    "x" + strings.Repeat(".a", chain),
		"power":    "2" + strings.Repeat("**2", chain),
		"ternary":  strings.Repeat("1 if 1 else ", chain) + "1",
	} {
		_, err := CompileExpr(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nested more than") {
			t.Errorf("%s: err = %v, want the nesting SyntaxError", name, err)
		}
	}
	body := strings.Repeat("if 1: ", chain) + "pass\n"
	if _, err := CompileBody(body); err == nil || !strings.Contains(err.Error(), "nested more than") {
		t.Errorf("inline suites: err = %v", err)
	}
	elifs := "if 0:\n    pass\n" + strings.Repeat("elif 0:\n    pass\n", chain)
	if _, err := CompileBody(elifs); err == nil || !strings.Contains(err.Error(), "nested more than") {
		t.Errorf("elif chain: err = %v", err)
	}
	ok := strings.Repeat("(", maxNesting-1) + "1" + strings.Repeat(")", maxNesting-1)
	if v, err := runExpr(New(), ok, nil); err != nil || v != int64(1) {
		t.Errorf("%d nested parens: %v, %v", maxNesting-1, v, err)
	}
}

// TestPyInfiniteLoopBudget: a loop that would run for hours stops at the
// step budget, and iterating a huge range allocates nothing up front.
func TestPyInfiniteLoopBudget(t *testing.T) {
	ip := New()
	ip.maxSteps = 10_000
	_, err := runBody(ip, "for i in range(10 ** 18):\n    pass\n", nil)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v", err)
	}
}

func TestPySyntaxErrors(t *testing.T) {
	bad := []string{
		"def f(:\n    pass",
		"1 +",
		"if True\n    pass",
		"import os",
		"class X:\n    pass",
		"x = = 2",
		"'unterminated",
	}
	for _, src := range bad {
		if _, err := CompileBody(src); err == nil {
			t.Errorf("CompileBody(%q) succeeded, want error", src)
		}
	}
}

func TestPyIndentationError(t *testing.T) {
	_, err := CompileBody("if True:\n    x = 1\n   y = 2\n")
	if err == nil {
		t.Fatal("expected inconsistent indentation error")
	}
}

func TestPyDocstringsIgnored(t *testing.T) {
	ip := New()
	err := ip.LoadLib(`
def documented(x):
    """
    This is a docstring.

    Args:
        x: a thing
    """
    return x
`)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := runExpr(ip, "documented(1)", nil); err != nil || v != int64(1) {
		t.Errorf("v = %#v err = %v", v, err)
	}
}

func TestPaperListing5CapitalizeWords(t *testing.T) {
	// Verbatim function from the paper's Listing 5.
	ip := New()
	err := ip.LoadLib(`
def capitalize_words(message):
    """
    Capitalize each word in the given message.

    Args:
        message (str): The input message.

    Returns:
        str: The message with each word capitalized.
    """
    return message.title()
`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := runExpr(ip, `f"{capitalize_words(m)}"`, map[string]any{"m": "hello, world"})
	if err != nil {
		t.Fatal(err)
	}
	if v != "Hello, World" {
		t.Errorf("v = %#v", v)
	}
}

func TestPaperListing6ValidFile(t *testing.T) {
	// Verbatim function from the paper's Listing 6.
	ip := New()
	err := ip.LoadLib(`
def valid_file(file, ext):
    """
    Check if a file is valid

    Args:
        file (str): Path to the file
        ext (str): Expected file extension

    Raises:
        Exception: If the file is invalid
    """
    if not file.lower().endswith(ext):
        raise Exception(f"Invalid file. Expected '{ext}'")
`)
	if err != nil {
		t.Fatal(err)
	}
	validate, err := CompileExpr(`f"{valid_file(path, '.csv')}"`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.RunProgram(validate, map[string]any{"path": "data.CSV"}); err != nil {
		t.Errorf("valid csv rejected: %v", err)
	}
	_, err = ip.RunProgram(validate, map[string]any{"path": "data.txt"})
	r, ok := err.(*Raised)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(r.Exc.Msg, "Expected '.csv'") {
		t.Errorf("msg = %q", r.Exc.Msg)
	}
}

func TestPyConversionBoundary(t *testing.T) {
	ip := New()
	vars := map[string]any{
		"inputs": yamlx.MapOf(
			"count", int64(5),
			"names", []any{"a", "b"},
			"file", yamlx.MapOf("basename", "x.csv"),
		),
	}
	// Dict attribute access extension: file.basename works like CWL users expect.
	if v, err := runExpr(ip, `inputs["file"].basename`, vars); err != nil || v != "x.csv" {
		t.Errorf("attr = %#v err=%v", v, err)
	}
	if v, err := runExpr(ip, `inputs["names"][1]`, vars); err != nil || v != "b" {
		t.Errorf("idx = %#v err=%v", v, err)
	}
	// int64 stays int64 through the boundary (no float mangling like JS).
	if v, err := runExpr(ip, `inputs["count"] + 1`, vars); err != nil || v != int64(6) {
		t.Errorf("count = %#v err=%v", v, err)
	}
}

// Property: int arithmetic is exact — it agrees with math/big whenever the
// result fits in 64 bits and raises OverflowError whenever it does not — and
// floor division and modulo satisfy (a//b)*b + a%b == a.
func TestPyArithmeticProperty(t *testing.T) {
	ip := New()
	progs := map[string]*Program{}
	for _, op := range []string{"+", "-", "*", "//", "%"} {
		p, err := CompileExpr("a " + op + " b")
		if err != nil {
			t.Fatal(err)
		}
		progs[op] = p
	}
	law, err := CompileExpr("(a // b) * b + a % b == a")
	if err != nil {
		t.Fatal(err)
	}
	exact := func(op string, a, b int64) *big.Int {
		x, y, z := big.NewInt(a), big.NewInt(b), new(big.Int)
		switch op {
		case "+":
			return z.Add(x, y)
		case "-":
			return z.Sub(x, y)
		case "*":
			return z.Mul(x, y)
		}
		q, m := new(big.Int), new(big.Int)
		q.DivMod(x, y, m) // Euclidean: 0 <= m < |y|
		if m.Sign() != 0 && y.Sign() < 0 {
			q.Sub(q, big.NewInt(1)) // floor for a negative divisor
			m.Add(m, y)
		}
		if op == "//" {
			return q
		}
		return m
	}
	check := func(a, b int64) bool {
		vars := map[string]any{"a": a, "b": b}
		for op, p := range progs {
			if b == 0 && (op == "//" || op == "%") {
				continue
			}
			got, err := ip.RunProgram(p, vars)
			want := exact(op, a, b)
			if !want.IsInt64() {
				if r, ok := err.(*Raised); !ok || r.Exc.Type != "OverflowError" {
					t.Logf("%d %s %d = %v, %v; want OverflowError", a, op, b, got, err)
					return false
				}
				continue
			}
			if err != nil || got != want.Int64() {
				t.Logf("%d %s %d = %v, %v; want %s", a, op, b, got, err, want)
				return false
			}
		}
		if b == 0 || max(a, -a, b, -b) > math.MaxInt32 || a == math.MinInt64 || b == math.MinInt64 {
			return true // the law's intermediate product may leave 64 bits
		}
		v, err := ip.RunProgram(law, vars)
		return err == nil && v == true
	}
	small := func(a, b int16) bool { return check(int64(a), int64(b)) }
	if err := quick.Check(small, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, edge := range [][2]int64{{math.MaxInt64, 1}, {math.MinInt64, -1}, {math.MinInt64, 1}, {3037000500, 3037000500}, {math.MinInt64, math.MinInt64}} {
		if !check(edge[0], edge[1]) {
			t.Errorf("edge %d, %d", edge[0], edge[1])
		}
	}
}

// Property: title() is idempotent.
func TestPyTitleIdempotentProperty(t *testing.T) {
	f := func(words []string) bool {
		s := strings.Join(words, " ")
		once := pyTitle(s)
		twice := pyTitle(once)
		return once == twice
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: toPy/fromPy round-trips document values exactly (ints preserved).
func TestPyConversionRoundTripProperty(t *testing.T) {
	f := func(n int64, s string, b bool) bool {
		in := []any{n, s, b, nil, []any{n, s}, map[string]any{"k": n}}
		out := fromPy(toPy(in))
		outs, ok := out.([]any)
		if !ok || len(outs) != 6 {
			return false
		}
		if outs[0] != n || outs[1] != s || outs[2] != b || outs[3] != nil {
			return false
		}
		inner, ok := outs[4].([]any)
		if !ok || inner[0] != n || inner[1] != s {
			return false
		}
		m, ok := outs[5].(*yamlx.Map)
		return ok && m.Value("k") == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPyNameError(t *testing.T) {
	_, err := runExpr(New(), "missing_name", nil)
	r, ok := err.(*Raised)
	if !ok || r.Exc.Type != "NameError" {
		t.Fatalf("err = %v", err)
	}
}

func TestPyUncaughtRaise(t *testing.T) {
	_, err := runBody(New(), `raise Exception("boom")`, nil)
	r, ok := err.(*Raised)
	if !ok || r.Exc.Type != "Exception" || r.Exc.Msg != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestPySemicolonsAndInlineSuites(t *testing.T) {
	v, err := runBody(New(), "x = 1; y = 2\nif x < y: return \"lt\"\nreturn \"ge\"", nil)
	if err != nil || v != "lt" {
		t.Errorf("v = %#v err = %v", v, err)
	}
}

func TestPyClosures(t *testing.T) {
	v, err := runBody(New(), "def make_adder(n):\n    def add(x):\n        return x + n\n    return add\nadd5 = make_adder(5)\nreturn add5(10)\n", nil)
	if err != nil || v != int64(15) {
		t.Errorf("v = %#v err = %v", v, err)
	}
}
