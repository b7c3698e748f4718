package parsl

import (
	"errors"
	"sync"
	"testing"
)

var errTest = errors.New("boom")

func loadMemoizingDFK(t *testing.T) *DFK {
	t.Helper()
	dfk, err := Load(Config{
		Executors: []Executor{NewThreadPoolExecutor("threads", 4)},
		Memoize:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dfk.Cleanup() })
	return dfk
}

func TestOnMemoCommitFiresForMemoizedSuccess(t *testing.T) {
	dfk := loadMemoizingDFK(t)
	var mu sync.Mutex
	var entries []MemoEntry
	remove := dfk.OnMemoCommit(func(e MemoEntry) {
		mu.Lock()
		entries = append(entries, e)
		mu.Unlock()
	})
	defer remove()

	app := NewGoApp("double", func(args Args) (any, error) {
		return args["n"].(int) * 2, nil
	})
	if _, err := dfk.Submit(app, Args{"n": 21}, CallOpts{}).Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(entries) != 1 {
		t.Fatalf("got %d memo commits, want 1", len(entries))
	}
	e := entries[0]
	if e.App != "double" || e.Key == "" || string(e.Raw) != `{"t":"val","v":42}` {
		t.Errorf("entry = %+v (raw %s)", e, e.Raw)
	}
}

func TestOnMemoCommitSkipsNoMemoAndFailures(t *testing.T) {
	dfk := loadMemoizingDFK(t)
	commits := 0
	var mu sync.Mutex
	remove := dfk.OnMemoCommit(func(MemoEntry) {
		mu.Lock()
		commits++
		mu.Unlock()
	})
	defer remove()

	nomemo := NewGoApp("nomemo", func(Args) (any, error) { return 1, nil })
	dfk.Submit(nomemo, Args{}, CallOpts{NoMemo: true}).Wait()
	failing := NewGoApp("failing", func(Args) (any, error) { return nil, errTest })
	dfk.Submit(failing, Args{}, CallOpts{}).Wait()
	dfk.Wait()

	mu.Lock()
	defer mu.Unlock()
	if commits != 0 {
		t.Errorf("got %d memo commits, want 0", commits)
	}
}

func TestMemoTableBounded(t *testing.T) {
	dfk, err := Load(Config{
		Executors:      []Executor{NewThreadPoolExecutor("threads", 4)},
		Memoize:        true,
		MaxMemoEntries: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	app := NewGoApp("id", func(args Args) (any, error) { return args["n"], nil })
	for i := 0; i < 100; i++ {
		if _, err := dfk.Submit(app, Args{"n": i}, CallOpts{}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	dfk.Wait()
	if n := len(dfk.MemoSnapshot()); n > 8 {
		t.Errorf("memo table holds %d entries, cap is 8", n)
	}
	// The most recent entry survives; an early one was evicted and simply
	// re-executes (still succeeds).
	if _, err := dfk.Submit(app, Args{"n": 99}, CallOpts{}).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := dfk.Submit(app, Args{"n": 0}, CallOpts{}).Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestMemoSnapshotAndRestoreAcrossDFKs(t *testing.T) {
	// First "process": execute and snapshot the memo table.
	dfk1 := loadMemoizingDFK(t)
	executions := 0
	var mu sync.Mutex
	app := NewGoApp("count", func(args Args) (any, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return args["k"], nil
	})
	if _, err := dfk1.Submit(app, Args{"k": "v1"}, CallOpts{}).Wait(); err != nil {
		t.Fatal(err)
	}
	snap := dfk1.MemoSnapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries, want 1", len(snap))
	}

	// Second "process": restore, then the identical submission must be a
	// memo hit — no execution, a memo_done event, the original result.
	dfk2 := loadMemoizingDFK(t)
	if n := dfk2.RestoreMemo(snap); n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	// Restoring again is a no-op (existing keys win).
	if n := dfk2.RestoreMemo(snap); n != 0 {
		t.Fatalf("second restore installed %d entries, want 0", n)
	}
	res, err := dfk2.Submit(app, Args{"k": "v1"}, CallOpts{Label: "restored"}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res != "v1" {
		t.Errorf("restored result = %v, want v1", res)
	}
	mu.Lock()
	execs := executions
	mu.Unlock()
	if execs != 1 {
		t.Errorf("app executed %d times, want 1 (second should be a memo hit)", execs)
	}
	hit := false
	for _, ev := range dfk2.EventsFor("restored") {
		if ev.State == StateMemoHit {
			hit = true
		}
	}
	if !hit {
		t.Error("no memo_done event recorded for the restored submission")
	}

	// A different argument still executes.
	if _, err := dfk2.Submit(app, Args{"k": "v2"}, CallOpts{}).Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 2 {
		t.Errorf("app executed %d times, want 2", executions)
	}
}
