package pyexpr

import (
	"fmt"
	"sync"
	"testing"
)

// TestProgramConcurrentEval proves one compiled Program plus one Interp are
// goroutine-safe (run with -race): concurrent evaluations with distinct
// variables never observe each other.
func TestProgramConcurrentEval(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("BASE = 100\ndef scale(v):\n    return v * 2 + BASE\n"); err != nil {
		t.Fatal(err)
	}
	prog, err := CompileExpr("scale(x) + len([i for i in range(x % 5)])")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := g*200 + i
				v, err := ip.RunProgram(prog, map[string]any{"x": x})
				if err != nil {
					errs <- err
					return
				}
				want := int64(x*2 + 100 + x%5)
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

// TestMutableLibGlobalsSerialize covers list/dict library globals mutated in
// place: such interpreters serialize evaluation, so concurrent use stays
// race-free (run with -race) and every mutation lands.
func TestMutableLibGlobalsSerialize(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("hits = []\n"); err != nil {
		t.Fatal(err)
	}
	prog, err := CompileBody("hits.append(x)\nreturn len(hits)\n")
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
	v, err := runExpr(ip, "len(hits)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(goroutines*evals) {
		t.Errorf("len(hits) = %v, want %d (lost mutations)", v, goroutines*evals)
	}
}

// TestFunctionOnlyLibsStayParallel pins the serialization heuristic: plain
// function/scalar libraries run parallel; mutable defaults do not.
func TestFunctionOnlyLibsStayParallel(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("K = 3\ndef f(v):\n    return v + K\n"); err != nil {
		t.Fatal(err)
	}
	ip.seal()
	if ip.serialize {
		t.Error("function-and-scalar library forced serialization")
	}
	mut := New()
	if err := mut.LoadLib("def g(v, acc=[]):\n    acc.append(v)\n    return acc\n"); err != nil {
		t.Fatal(err)
	}
	mut.seal()
	if !mut.serialize {
		t.Error("mutable-default library not serialized")
	}
}

// TestSealedGlobalIsolation verifies a rebind of a library global inside one
// evaluation binds locally and does not leak into later evaluations.
func TestSealedGlobalIsolation(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("MODE = 'lib'\n"); err != nil {
		t.Fatal(err)
	}
	v, err := runBody(ip, "MODE = 'local'\nreturn MODE\n", nil)
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
		t.Fatalf("library global = %v after foreign eval, want 'lib'", v)
	}
}

// TestLoadLibAfterSeal verifies library loading is rejected once evaluation
// has sealed the global scope.
func TestLoadLibAfterSeal(t *testing.T) {
	ip := New()
	if _, err := runExpr(ip, "1 + 1", nil); err != nil {
		t.Fatal(err)
	}
	if err := ip.LoadLib("def f():\n    return 1\n"); err == nil {
		t.Fatal("LoadLib after evaluation succeeded, want sealed-scope error")
	}
}

// TestCallSerializesOnMutableLibs verifies calls of a library function
// that mutates a library global serialize like inline mutation does (run
// with -race).
func TestCallSerializesOnMutableLibs(t *testing.T) {
	ip := New()
	if err := ip.LoadLib("hits = []\ndef add(v):\n    hits.append(v)\n    return len(hits)\n"); err != nil {
		t.Fatal(err)
	}
	prog, err := CompileExpr("add(x)")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := ip.RunProgram(prog, map[string]any{"x": g}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	v, err := runExpr(ip, "len(hits)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(8*25) {
		t.Errorf("len(hits) = %v, want %d", v, 8*25)
	}
}
