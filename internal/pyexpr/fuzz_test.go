package pyexpr

import (
	"strings"
	"testing"
)

// FuzzCompilePy: compiling any input, as an expression or as a statement
// block, returns a program or an error; it never panics or overflows the
// stack. Seeds are every golden row plus deep nesting at and past the bound.
func FuzzCompilePy(f *testing.F) {
	for _, r := range loadGolden(f) {
		f.Add(strings.ReplaceAll(r.src, bodyMarker, "\n"))
	}
	f.Add(strings.Repeat("(", maxNesting) + "1" + strings.Repeat(")", maxNesting))
	f.Add("f\"{" + strings.Repeat("[", 5000) + "}\"")
	f.Add(strings.Repeat("-", 5000) + "1")
	f.Fuzz(func(t *testing.T, src string) {
		if p, err := CompileExpr(src); (p == nil) == (err == nil) {
			t.Fatalf("CompileExpr(%q) = %v, %v", src, p, err)
		}
		if p, err := CompileBody(src); (p == nil) == (err == nil) {
			t.Fatalf("CompileBody(%q) = %v, %v", src, p, err)
		}
	})
}
