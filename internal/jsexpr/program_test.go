package jsexpr

import (
	"fmt"
	"sync"
	"testing"
)

// TestProgramConcurrentEval proves one compiled Program plus one Interp are
// goroutine-safe: many goroutines evaluate concurrently (run with -race),
// each with its own variables, and every result must match its inputs.
func TestProgramConcurrentEval(t *testing.T) {
	ip := New()
	if err := ip.LoadLib(`
		var BASE = 100;
		function scale(v) { return v * 2 + BASE; }`); err != nil {
		t.Fatal(err)
	}
	prog, err := CompileExpr("scale(x) + [x, x+1].map(function(i){ return i; }).length")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	const evals = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < evals; i++ {
				x := g*evals + i
				v, err := ip.RunProgram(prog, map[string]any{"x": x})
				if err != nil {
					errs <- err
					return
				}
				want := int64(x*2 + 100 + 2)
				if v != want {
					errs <- fmt.Errorf("x=%d: got %v, want %d", x, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentBodyProgram exercises statement bodies (loops, locals,
// implicit-global assignment) under concurrency: per-call state must be
// isolated, so the accumulator never observes another goroutine's writes.
func TestConcurrentBodyProgram(t *testing.T) {
	ip := New()
	prog, err := CompileBody(`
		total = 0;
		for (var i = 0; i < n; i++) { total += i; }
		return total;`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 10 + g
			want := int64(n * (n - 1) / 2)
			for i := 0; i < 100; i++ {
				v, err := ip.RunProgram(prog, map[string]any{"n": n})
				if err != nil {
					errs <- err
					return
				}
				if v != want {
					errs <- fmt.Errorf("n=%d: got %v, want %d", n, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMutableLibGlobalsSerialize covers the memoization idiom: a library
// object/array global mutated in place by expressions. Such interpreters
// serialize evaluation (detected at seal time), so concurrent use stays
// race-free (run with -race) and every mutation lands.
func TestMutableLibGlobalsSerialize(t *testing.T) {
	ip := New()
	if err := ip.LoadLib(`var hits = [];`); err != nil {
		t.Fatal(err)
	}
	prog, err := CompileBody(`hits.push(x); return hits.length;`)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, evals = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < evals; i++ {
				if _, err := ip.RunProgram(prog, map[string]any{"x": g}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	v, err := runExpr(ip, "hits.length", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(goroutines*evals) {
		t.Errorf("hits.length = %v, want %d (lost mutations)", v, goroutines*evals)
	}
}

// TestFunctionOnlyLibsStayParallel pins the serialization heuristic: plain
// function/scalar libraries must not be serialized.
func TestFunctionOnlyLibsStayParallel(t *testing.T) {
	ip := New()
	if err := ip.LoadLib(`var K = 3; function f(v) { return v + K; }`); err != nil {
		t.Fatal(err)
	}
	if ip.lib.Serialized() {
		t.Error("function-and-scalar library forced serialization")
	}
	mut := New()
	if err := mut.LoadLib(`var cache = {};`); err != nil {
		t.Fatal(err)
	}
	if !mut.lib.Serialized() {
		t.Error("object-global library not serialized")
	}
}

// TestSealedGlobalIsolation verifies evaluation cannot mutate library
// globals: a rebind inside one evaluation shadows locally and later
// evaluations still see the library value.
func TestSealedGlobalIsolation(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("var MODE = \"lib\";"); err != nil {
		t.Fatal(err)
	}
	v, err := runBody(ip, `MODE = "local"; return MODE;`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != "local" {
		t.Fatalf("in-eval read = %v, want shadowed value", v)
	}
	v, err = runExpr(ip, "MODE", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != "lib" {
		t.Fatalf("library global = %v after foreign eval, want %q", v, "lib")
	}
}

// TestLoadLibAfterSeal verifies library loading is rejected once evaluation
// has sealed the global scope.
func TestLoadLibAfterSeal(t *testing.T) {
	ip := New()
	if _, err := runExpr(ip, "1 + 1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ip.LoadLib("function f() { return 1; }"); err == nil {
		t.Fatal("LoadLib after evaluation succeeded, want sealed-scope error")
	}
}

// TestCompiledEvalAllocs asserts the compiled-eval path does not re-parse:
// evaluating a precompiled medium-sized expression must stay far below the
// allocation count parsing it costs.
func TestCompiledEvalAllocs(t *testing.T) {
	ip := New()
	src := `a + b * 2 - (a % 7) + [a, b, a + b].map(function(i){ return i * 2; }).length`
	prog, err := CompileExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]any{"a": 11, "b": 5}
	if _, err := ip.RunProgram(prog, vars); err != nil {
		t.Fatal(err)
	}
	evalAllocs := testing.AllocsPerRun(200, func() {
		if _, err := ip.RunProgram(prog, vars); err != nil {
			t.Fatal(err)
		}
	})
	uncompiledAllocs := testing.AllocsPerRun(200, func() {
		if _, err := runExpr(ip, src, vars); err != nil {
			t.Fatal(err)
		}
	})
	// The compiled path allocates per-eval scopes and values, but nothing
	// proportional to parsing. Guard both absolutely and relative to the
	// parse-per-call path so a reintroduced per-eval parse fails loudly.
	if evalAllocs > 120 {
		t.Errorf("compiled eval allocates %.0f per run, want <= 120", evalAllocs)
	}
	if evalAllocs > 0.8*uncompiledAllocs {
		t.Errorf("compiled eval allocates %.0f per run vs %.0f uncompiled — parsing leaked into the eval path?", evalAllocs, uncompiledAllocs)
	}
}
