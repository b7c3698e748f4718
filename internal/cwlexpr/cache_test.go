package cwlexpr

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cwl"
	"repro/internal/yamlx"
)

// TestEngineConcurrentEval hammers one shared Engine from many goroutines
// across all three expression forms (run with -race): the program cache, the
// interpreters, and the counters must all tolerate concurrency.
func TestEngineConcurrentEval(t *testing.T) {
	e, err := NewEngine(cwl.Requirements{
		InlineJavascript: true,
		JSExpressionLib:  []string{"function dub(v) { return v * 2; }"},
		InlinePython:     true,
		PyExpressionLib:  []string{"def tri(v):\n    return v * 3\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	js0, py0 := metJSEvals.Value(), metPyEvals.Value()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				n := int64(g*100 + i)
				ctx := Context{Inputs: yamlx.MapOf("n", n)}
				v, err := e.Eval("$(dub(inputs.n) + 1)", ctx)
				if err != nil {
					errs <- err
					return
				}
				if v != n*2+1 {
					errs <- fmt.Errorf("dub(%d): got %v", n, v)
					return
				}
				v, err = e.Eval("${ var acc = 0; for (var i = 0; i < 3; i++) { acc += inputs.n; } return acc; }", ctx)
				if err != nil {
					errs <- err
					return
				}
				if v != n*3 {
					errs <- fmt.Errorf("body(%d): got %v", n, v)
					return
				}
				v, err = e.Eval(`f"{tri($(inputs.n))}"`, ctx)
				if err != nil {
					errs <- err
					return
				}
				if v != fmt.Sprintf("%d", n*3) {
					errs <- fmt.Errorf("fstring(%d): got %v", n, v)
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
	if got := metJSEvals.Value() - js0; got != 24*100*2 {
		t.Errorf("JS evaluations = %d, want %d", got, 24*100*2)
	}
	if got := metPyEvals.Value() - py0; got != 24*100 {
		t.Errorf("Python evaluations = %d, want %d", got, 24*100)
	}
}

// freshPool swaps in an empty engine pool of the given capacity for the
// test and returns a function reporting the pool's hits and misses since.
func freshPool(t *testing.T, capacity int) func() (hits, misses int64) {
	old := enginePool
	enginePool = newEnginePool(capacity)
	t.Cleanup(func() { enginePool = old })
	h0, m0 := metEnginePoolHits.Value(), metEnginePoolMisses.Value()
	return func() (int64, int64) {
		return metEnginePoolHits.Value() - h0, metEnginePoolMisses.Value() - m0
	}
}

// cacheLen reports how many entries c retains.
func cacheLen(c *lruCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}

// TestProgramCacheReuse verifies repeated evaluation of the same source
// compiles once (cache length stays flat) and that results stay correct.
func TestProgramCacheReuse(t *testing.T) {
	e := jsEngine(t)
	ctx := testCtx()
	for i := 0; i < 50; i++ {
		if _, err := e.Eval("$(inputs.count + 1)", ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheLen(e.progs); n != 2 {
		t.Errorf("cache holds %d entries after 50 identical evals, want 2 (split + program)", n)
	}
}

// TestProgramCacheEviction verifies the LRU bound: capacity 2 retains two
// programs, evicted sources still evaluate correctly (recompiled).
func TestProgramCacheEviction(t *testing.T) {
	e := jsEngine(t)
	e.progs = newProgramCache(2)
	ctx := testCtx()
	exprs := []string{"$(inputs.count + 1)", "$(inputs.count + 2)", "$(inputs.count + 3)"}
	for _, src := range exprs {
		if _, err := e.Eval(src, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheLen(e.progs); n != 2 {
		t.Errorf("cache holds %d entries, want cap 2", n)
	}
	// The first expression was evicted; it must still evaluate.
	v, err := e.Eval(exprs[0], ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(4) {
		t.Errorf("evicted re-eval = %v, want 4", v)
	}
}

// TestProgramCacheCachesErrors verifies a bad expression fails identically
// from the cache (one parse, repeated failures).
func TestProgramCacheCachesErrors(t *testing.T) {
	e := jsEngine(t)
	ctx := testCtx()
	for i := 0; i < 3; i++ {
		if _, err := e.Eval("$(inputs.count +)", ctx); err == nil {
			t.Fatal("bad expression evaluated without error")
		}
	}
	if n := cacheLen(e.progs); n != 2 {
		t.Errorf("cache holds %d entries, want 2 (interpolation split + cached error)", n)
	}
}

// TestSharedEnginePool verifies identity: equal requirement sets share one
// engine (libraries load once per set), different sets get distinct engines.
func TestSharedEnginePool(t *testing.T) {
	poolStats := freshPool(t, DefaultEnginePoolCap)
	reqs := cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"function f(v) { return v + 1; }"}}
	e1, err := SharedEngine(reqs)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := SharedEngine(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("same requirements produced distinct engines")
	}
	hits, misses := poolStats()
	if size := cacheLen(enginePool); hits != 1 || misses != 1 || size != 1 {
		t.Errorf("pool stats = %d hits / %d misses / %d engines, want 1/1/1", hits, misses, size)
	}
	other, err := SharedEngine(cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"function f(v) { return v + 2; }"}})
	if err != nil {
		t.Fatal(err)
	}
	if other == e1 {
		t.Fatal("different expressionLib shared an engine")
	}
	v, err := e1.Eval("$(f(inputs.count))", testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(4) {
		t.Errorf("pooled engine eval = %v, want 4", v)
	}
	v, err = other.Eval("$(f(inputs.count))", testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(5) {
		t.Errorf("second pooled engine eval = %v, want 5", v)
	}
}

// TestEngineKeyNoCollision covers the separator-injection corner: library
// lists that concatenate identically must still key differently (each
// source is length-prefixed).
func TestEngineKeyNoCollision(t *testing.T) {
	a := engineKey(cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"var A = 1;", "var B = 2;"}})
	b := engineKey(cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"var A = 1;var B = 2;"}})
	if a == b {
		t.Fatal("distinct library lists produced the same engine key")
	}
	// js-lib vs py-lib with identical source must differ too.
	c := engineKey(cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"x"}})
	d := engineKey(cwl.Requirements{InlinePython: true, PyExpressionLib: []string{"x"}})
	if c == d {
		t.Fatal("js and py requirement sets produced the same engine key")
	}
	freshPool(t, DefaultEnginePoolCap)
	e1, err1 := SharedEngine(cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"var A = 1;", "var B = 2;"}})
	e2, err2 := SharedEngine(cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"var A = 1;var B = 2;"}})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if e1 == e2 {
		t.Fatal("colliding requirement sets shared an engine")
	}
}

// TestEnginePoolEviction verifies the pool LRU: past the cap the
// least-recently-used engine is dropped and rebuilt on next use.
func TestEnginePoolEviction(t *testing.T) {
	poolStats := freshPool(t, 2)
	mk := func(i int) cwl.Requirements {
		return cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{fmt.Sprintf("var N = %d;", i)}}
	}
	engines := make([]*Engine, 3)
	for i := range engines {
		e, err := SharedEngine(mk(i))
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	if size := cacheLen(enginePool); size != 2 {
		t.Fatalf("pool size = %d, want cap 2", size)
	}
	// Engine 0 was evicted: re-requesting it is a miss that rebuilds.
	_, missesBefore := poolStats()
	rebuilt, err := SharedEngine(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := poolStats(); misses != missesBefore+1 {
		t.Errorf("re-request of evicted engine was not a miss (%d → %d)", missesBefore, misses)
	}
	if v, err := rebuilt.Eval("$(N)", testCtx()); err != nil || v != int64(0) {
		t.Fatalf("rebuilt engine eval = %v, %v", v, err)
	}
}

// TestSharedEngineCachesErrors verifies a broken expressionLib costs one
// construction: the error is pooled.
func TestSharedEngineCachesErrors(t *testing.T) {
	poolStats := freshPool(t, DefaultEnginePoolCap)
	bad := cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{"function ("}}
	if _, err := SharedEngine(bad); err == nil {
		t.Fatal("broken lib accepted")
	}
	if _, err := SharedEngine(bad); err == nil {
		t.Fatal("broken lib accepted on second lookup")
	}
	if hits, misses := poolStats(); misses != 1 || hits != 1 {
		t.Errorf("error entry not pooled: %d hits / %d misses, want 1/1", hits, misses)
	}
}

// TestSharedEnginePoolConcurrent races many goroutines resolving the same
// and different requirement sets (run with -race).
func TestSharedEnginePoolConcurrent(t *testing.T) {
	freshPool(t, DefaultEnginePoolCap)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reqs := cwl.Requirements{InlineJavascript: true, JSExpressionLib: []string{fmt.Sprintf("var G = %d;", g%4)}}
			for i := 0; i < 50; i++ {
				e, err := SharedEngine(reqs)
				if err != nil {
					t.Error(err)
					return
				}
				v, err := e.Eval("$(G + inputs.count)", Context{Inputs: yamlx.MapOf("count", int64(1))})
				if err != nil {
					t.Error(err)
					return
				}
				if v != int64(g%4+1) {
					t.Errorf("g=%d: got %v", g, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if size := cacheLen(enginePool); size != 4 {
		t.Errorf("pool size = %d, want 4 distinct requirement sets", size)
	}
}
