package jsexpr

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"repro/internal/exprcore"
)

// FuzzCompileJS: compiling any input, as an expression or as a function
// body, returns a program or an error; it never panics or overflows the
// stack. Seeds are the golden rows the inline-Python subset is pinned by
// (their sources are valid JavaScript often enough to reach deep), a few
// CWL-style expressions, and deep nesting at and past the bound.
func FuzzCompileJS(f *testing.F) {
	golden, err := os.Open("../pyexpr/testdata/cpython.txt")
	if err != nil {
		f.Fatal(err)
	}
	defer golden.Close()
	sc := bufio.NewScanner(golden)
	for sc.Scan() {
		if src, _, ok := strings.Cut(sc.Text(), "\t"); ok && !strings.HasPrefix(src, "#") {
			f.Add(strings.ReplaceAll(src, "⏎", "\n"))
		}
	}
	for _, s := range []string{
		"inputs.message.toUpperCase()",
		"var x = [1, 2]; return {out: x.map(function (v) { return v * 2; })};",
		"for (var i = 0; i < 3; i++) { if (i == 1) break; } return i;",
		"function f(n) { return f(n + 1); } return f(0);",
		strings.Repeat("(", exprcore.MaxNesting) + "1" + strings.Repeat(")", exprcore.MaxNesting),
		strings.Repeat("{", 5000),
		strings.Repeat("!", 5000) + "1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if p, err := CompileExpr(src); (p == nil) == (err == nil) {
			t.Fatalf("CompileExpr(%q) = %v, %v", src, p, err)
		}
		if p, err := CompileBody(src); (p == nil) == (err == nil) {
			t.Fatalf("CompileBody(%q) = %v, %v", src, p, err)
		}
	})
}
