package parsl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/provider"
)

func loadTest(t *testing.T, cfg Config) *DFK {
	t.Helper()
	d, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Cleanup() })
	return d
}

// eventMirror records every task event a DFK emits, labeled or not, in the
// order its hook sees them — the OnTaskEvent consumer a caller needing the
// whole stream registers.
type eventMirror struct {
	mu     sync.Mutex
	events []TaskEvent
}

// mirrorEvents attaches an eventMirror to d for the rest of the test.
func mirrorEvents(t *testing.T, d *DFK) *eventMirror {
	m := &eventMirror{}
	t.Cleanup(d.OnTaskEvent(func(ev TaskEvent) {
		m.mu.Lock()
		m.events = append(m.events, ev)
		m.mu.Unlock()
	}))
	return m
}

// all returns a copy of the events seen so far.
func (m *eventMirror) all() []TaskEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TaskEvent(nil), m.events...)
}

func TestGoAppBasic(t *testing.T) {
	d := loadTest(t, Config{})
	app := NewGoApp("add", func(args Args) (any, error) {
		return args["a"].(int) + args["b"].(int), nil
	})
	fut := d.Submit(app, Args{"a": 2, "b": 3}, CallOpts{})
	v, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("v = %v", v)
	}
}

func TestFutureChaining(t *testing.T) {
	d := loadTest(t, Config{})
	inc := NewGoApp("inc", func(args Args) (any, error) {
		return args["x"].(int) + 1, nil
	})
	f1 := d.Submit(inc, Args{"x": 0}, CallOpts{})
	// f1 passed as an arg: resolved to its result before f2 runs.
	f2 := d.Submit(NewGoApp("inc2", func(args Args) (any, error) {
		return args["x"].(int) + 1, nil
	}), Args{"x": f1}, CallOpts{})
	v, err := f2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("v = %v", v)
	}
}

func TestImplicitParallelism(t *testing.T) {
	d := loadTest(t, Config{Executors: []Executor{NewThreadPoolExecutor("threads", 8)}})
	var running, peak atomic.Int64
	slow := NewGoApp("slow", func(args Args) (any, error) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		running.Add(-1)
		return nil, nil
	})
	var futs []*AppFuture
	for i := 0; i < 8; i++ {
		futs = append(futs, d.Submit(slow, Args{}, CallOpts{}))
	}
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 4 {
		t.Errorf("peak parallelism = %d, want >= 4", peak.Load())
	}
}

func TestDependencyOrdering(t *testing.T) {
	d := loadTest(t, Config{Executors: []Executor{NewThreadPoolExecutor("threads", 8)}})
	var order []string
	var mu atomic.Pointer[[]string]
	empty := []string{}
	mu.Store(&empty)
	record := func(name string) {
		for {
			old := mu.Load()
			next := append(append([]string{}, *old...), name)
			if mu.CompareAndSwap(old, &next) {
				return
			}
		}
	}
	mk := func(name string) *GoApp {
		return NewGoApp(name, func(args Args) (any, error) {
			record(name)
			return name, nil
		})
	}
	a := d.Submit(mk("a"), Args{}, CallOpts{})
	b := d.Submit(mk("b"), Args{"dep": a}, CallOpts{})
	c := d.Submit(mk("c"), Args{"dep": b}, CallOpts{})
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	order = *mu.Load()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("order = %v", order)
	}
}

func TestDependencyFailurePropagates(t *testing.T) {
	d := loadTest(t, Config{})
	boom := d.Submit(NewGoApp("boom", func(Args) (any, error) {
		return nil, errors.New("kaboom")
	}), Args{}, CallOpts{})
	ran := false
	child := d.Submit(NewGoApp("child", func(Args) (any, error) {
		ran = true
		return nil, nil
	}), Args{"dep": boom}, CallOpts{})
	_, err := child.Wait()
	var depErr *DependencyError
	if !errors.As(err, &depErr) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Error("child ran despite failed dependency")
	}
	d.Wait()
	if counts := d.StateCounts(); counts[StateDepFail] != 1 || counts[StateFailed] != 1 || len(counts) != 2 {
		t.Errorf("state counts = %v, want one failed and one dep_fail", counts)
	}
}

func TestRetries(t *testing.T) {
	d := loadTest(t, Config{Retries: 2})
	var attempts atomic.Int64
	flaky := NewGoApp("flaky", func(Args) (any, error) {
		if attempts.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	})
	v, err := d.Submit(flaky, Args{}, CallOpts{}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v != "ok" || attempts.Load() != 3 {
		t.Errorf("v=%v attempts=%d", v, attempts.Load())
	}
}

func TestRetriesExhausted(t *testing.T) {
	d := loadTest(t, Config{Retries: 1})
	var attempts atomic.Int64
	bad := NewGoApp("bad", func(Args) (any, error) {
		attempts.Add(1)
		return nil, errors.New("always fails")
	})
	_, err := d.Submit(bad, Args{}, CallOpts{}).Wait()
	if err == nil {
		t.Fatal("expected failure")
	}
	if attempts.Load() != 2 {
		t.Errorf("attempts = %d", attempts.Load())
	}
}

func TestMemoization(t *testing.T) {
	d := loadTest(t, Config{Memoize: true})
	var calls atomic.Int64
	app := NewGoApp("expensive", func(args Args) (any, error) {
		calls.Add(1)
		return args["x"], nil
	})
	f1 := d.Submit(app, Args{"x": "same"}, CallOpts{})
	if _, err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
	f2 := d.Submit(app, Args{"x": "same"}, CallOpts{})
	if v, err := f2.Wait(); err != nil || v != "same" {
		t.Fatalf("memo result %v %v", v, err)
	}
	f3 := d.Submit(app, Args{"x": "different"}, CallOpts{})
	f3.Wait()
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2 (one memo hit)", calls.Load())
	}
	if d.StateCounts()[StateMemoHit] != 1 {
		t.Errorf("memo hits = %d", d.StateCounts()[StateMemoHit])
	}
}

func TestDataFuturePassing(t *testing.T) {
	dir := t.TempDir()
	d := loadTest(t, Config{RunDir: dir})
	write := NewBashApp("write", func(args Args) (string, error) {
		return fmt.Sprintf("echo %s > out1.txt", args["word"]), nil
	})
	f1 := d.Submit(write, Args{"word": "payload"}, CallOpts{
		Outputs: []File{NewFile("out1.txt")},
	})
	// Downstream app consumes the DataFuture as its input file.
	copyApp := NewBashApp("copy", func(args Args) (string, error) {
		in := args["src"].(File)
		return fmt.Sprintf("cat %s > out2.txt", in.Path), nil
	})
	f2 := d.Submit(copyApp, Args{"src": f1.Output(0)}, CallOpts{
		Outputs: []File{NewFile("out2.txt")},
	})
	if _, err := f2.Wait(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "out2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "payload" {
		t.Errorf("content = %q", data)
	}
}

func TestBashAppStdoutRedirect(t *testing.T) {
	dir := t.TempDir()
	d := loadTest(t, Config{RunDir: dir})
	echo := NewBashApp("echo", func(args Args) (string, error) {
		return "echo hello-parsl", nil
	})
	fut := d.Submit(echo, Args{}, CallOpts{Stdout: "hello.txt"})
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	br := res.(BashResult)
	if br.ExitCode != 0 {
		t.Errorf("exit = %d", br.ExitCode)
	}
	data, err := os.ReadFile(filepath.Join(dir, "hello.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "hello-parsl" {
		t.Errorf("content = %q", data)
	}
	if fut.Stdout() == "" {
		t.Error("future should record stdout path")
	}
}

func TestBashAppFailure(t *testing.T) {
	d := loadTest(t, Config{RunDir: t.TempDir()})
	bad := NewBashApp("bad", func(Args) (string, error) {
		return "exit 3", nil
	})
	res, err := d.Submit(bad, Args{}, CallOpts{}).Wait()
	if err == nil {
		t.Fatal("expected error")
	}
	if br, ok := res.(BashResult); !ok || br.ExitCode != 3 {
		t.Errorf("res = %#v", res)
	}
}

func TestBashAppMissingOutput(t *testing.T) {
	d := loadTest(t, Config{RunDir: t.TempDir()})
	app := NewBashApp("noout", func(Args) (string, error) {
		return "true", nil
	})
	_, err := d.Submit(app, Args{}, CallOpts{Outputs: []File{NewFile("never.txt")}}).Wait()
	if err == nil || !strings.Contains(err.Error(), "not produced") {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	d := loadTest(t, Config{})
	app := NewGoApp("panics", func(Args) (any, error) {
		panic("deliberate")
	})
	_, err := d.Submit(app, Args{}, CallOpts{}).Wait()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestHTEXBasic(t *testing.T) {
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", WorkersPerNode: 4, MaxBlocks: 2, InitBlocks: 1,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	var count atomic.Int64
	app := NewGoApp("count", func(Args) (any, error) {
		count.Add(1)
		return nil, nil
	})
	var futs []*AppFuture
	for i := 0; i < 50; i++ {
		futs = append(futs, d.Submit(app, Args{}, CallOpts{}))
	}
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 50 {
		t.Errorf("count = %d", count.Load())
	}
}

func TestHTEXScalesOut(t *testing.T) {
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", Provider: &provider.LocalProvider{},
		WorkersPerNode: 2, MaxBlocks: 3, InitBlocks: 1,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	block := make(chan struct{})
	app := NewGoApp("blocker", func(Args) (any, error) {
		<-block
		return nil, nil
	})
	var futs []*AppFuture
	for i := 0; i < 12; i++ {
		futs = append(futs, d.Submit(app, Args{}, CallOpts{}))
	}
	// Give scaling a moment to kick in, then release.
	deadline := time.Now().Add(2 * time.Second)
	for htex.ConnectedManagers() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	managers := htex.ConnectedManagers()
	close(block)
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatal(err)
	}
	if managers < 2 {
		t.Errorf("managers = %d, want scale-out to >= 2", managers)
	}
}

func TestHTEXDistributesAcrossManagers(t *testing.T) {
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", WorkersPerNode: 2, MaxBlocks: 3, InitBlocks: 3,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	app := NewGoApp("spin", func(Args) (any, error) {
		time.Sleep(2 * time.Millisecond)
		return nil, nil
	})
	var futs []*AppFuture
	for i := 0; i < 120; i++ {
		futs = append(futs, d.Submit(app, Args{}, CallOpts{}))
	}
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatal(err)
	}
	counts := htex.CompletedByManager()
	busy := 0
	var total int64
	for _, c := range counts {
		total += c
		if c > 0 {
			busy++
		}
	}
	if total != 120 {
		t.Errorf("total completed = %d", total)
	}
	if busy < 2 {
		t.Errorf("only %d managers did work: %v", busy, counts)
	}
}

func TestMultipleExecutors(t *testing.T) {
	d := loadTest(t, Config{Executors: []Executor{
		NewThreadPoolExecutor("fast", 2),
		NewThreadPoolExecutor("slow", 1),
	}})
	app := NewGoApp("whoami", func(Args) (any, error) { return "ran", nil })
	v1, err := d.Submit(app, Args{}, CallOpts{Executor: "fast"}).Wait()
	if err != nil || v1 != "ran" {
		t.Fatalf("fast: %v %v", v1, err)
	}
	v2, err := d.Submit(app, Args{}, CallOpts{Executor: "slow"}).Wait()
	if err != nil || v2 != "ran" {
		t.Fatalf("slow: %v %v", v2, err)
	}
	_, err = d.Submit(app, Args{}, CallOpts{Executor: "nonexistent"}).Wait()
	if err == nil {
		t.Fatal("expected error for unknown executor")
	}
}

func TestEventsLog(t *testing.T) {
	d := loadTest(t, Config{})
	mirror := mirrorEvents(t, d)
	app := NewGoApp("e", func(Args) (any, error) { return nil, nil })
	f := d.Submit(app, Args{}, CallOpts{})
	f.Wait()
	d.Wait()
	events := mirror.all()
	var states []TaskState
	for _, e := range events {
		if e.TaskID == f.TaskID() {
			states = append(states, e.State)
		}
	}
	if len(states) < 3 || states[0] != StatePending || states[len(states)-1] != StateDone {
		t.Errorf("states = %v", states)
	}
}

func TestResultContext(t *testing.T) {
	d := loadTest(t, Config{})
	block := make(chan struct{})
	defer close(block)
	app := NewGoApp("block", func(Args) (any, error) {
		<-block
		return nil, nil
	})
	f := d.Submit(app, Args{}, CallOpts{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := f.Result(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

// Property: random DAGs complete with every task either done or dep-failed,
// and results respect the dependency function.
func TestRandomDAGProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := Load(Config{Executors: []Executor{NewThreadPoolExecutor("threads", 4)}})
		if err != nil {
			return false
		}
		defer d.Cleanup()
		n := 30
		futs := make([]*AppFuture, 0, n)
		app := NewGoApp("sum", func(args Args) (any, error) {
			total := 1
			if deps, ok := args["deps"].([]any); ok {
				for _, dv := range deps {
					total += dv.(int)
				}
			}
			return total, nil
		})
		expect := make([]int, n)
		for i := 0; i < n; i++ {
			var deps []any
			val := 1
			if i > 0 {
				k := rng.Intn(3)
				for j := 0; j < k; j++ {
					pick := rng.Intn(i)
					deps = append(deps, futs[pick])
					val += expect[pick]
				}
			}
			expect[i] = val
			futs = append(futs, d.Submit(app, Args{"deps": deps}, CallOpts{}))
		}
		for i, fut := range futs {
			v, err := fut.Wait()
			if err != nil || v != expect[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigSpecParsing(t *testing.T) {
	spec, err := ParseConfig([]byte(`
executor: htex
workers-per-node: 48
nodes: 3
retries: 2
memoize: true
run-dir: /tmp/run
provider: local
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Executor != "htex" || spec.WorkersPerNode != 48 || spec.Nodes != 3 ||
		spec.Retries != 2 || !spec.Memoize || spec.RunDir != "/tmp/run" {
		t.Errorf("spec = %+v", spec)
	}
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Executors) != 1 || cfg.Executors[0].Label() != "htex" {
		t.Errorf("executors = %v", cfg.Executors)
	}
}

func TestConfigSpecErrors(t *testing.T) {
	bad := []string{
		"executor: spark",
		"unknown-key: 1",
		"executor: htex\nworkers-per-node: 0",
		"provider: slurm",
	}
	for _, src := range bad {
		if _, err := ParseConfig([]byte(src)); err == nil {
			t.Errorf("ParseConfig(%q) succeeded", src)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	spec, err := ParseConfig([]byte(""))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Executor != "thread-pool" || spec.Nodes != 1 {
		t.Errorf("defaults = %+v", spec)
	}
}

func TestScatterGatherPattern(t *testing.T) {
	// The paper's §IV pattern: fan out over inputs, gather results.
	d := loadTest(t, Config{Executors: []Executor{NewThreadPoolExecutor("threads", 8)}})
	square := NewGoApp("square", func(args Args) (any, error) {
		x := args["x"].(int)
		return x * x, nil
	})
	var futs []*AppFuture
	for i := 1; i <= 10; i++ {
		futs = append(futs, d.Submit(square, Args{"x": i}, CallOpts{}))
	}
	total := 0
	for _, f := range futs {
		v, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		total += v.(int)
	}
	if total != 385 {
		t.Errorf("total = %d", total)
	}
}

func TestUsageSummary(t *testing.T) {
	d := loadTest(t, Config{})
	app := NewGoApp("summed", func(Args) (any, error) { return nil, nil })
	for i := 0; i < 3; i++ {
		d.Submit(app, Args{}, CallOpts{})
	}
	d.Wait()
	out := d.UsageSummary()
	if !strings.Contains(out, "tasks submitted: 3") {
		t.Errorf("summary missing count:\n%s", out)
	}
	if !strings.Contains(out, "summed") || !strings.Contains(out, "exec_done") {
		t.Errorf("summary missing app/state:\n%s", out)
	}
}

type failingProvider struct{}

func (failingProvider) Name() string { return "failing" }
func (failingProvider) Launch(int, int) (provider.ManagerHandle, error) {
	return nil, errors.New("allocation denied")
}
func (failingProvider) Status() map[int]provider.BlockStatus { return nil }
func (failingProvider) Cancel() error                        { return nil }

func TestHTEXProviderFailureSurfacesOnStart(t *testing.T) {
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", Provider: failingProvider{}, WorkersPerNode: 1,
	})
	if err := htex.Start(); err == nil || !strings.Contains(err.Error(), "allocation denied") {
		t.Fatalf("err = %v", err)
	}
}

func TestSubmitAfterShutdownFails(t *testing.T) {
	ex := NewThreadPoolExecutor("threads", 1)
	if err := ex.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Shutdown(); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	ex.Submit(&Task{ID: 1, Fn: func() (any, error) { return nil, nil }}, func(_ any, err error) {
		got <- err
	})
	if err := <-got; err == nil || !strings.Contains(err.Error(), "shut down") {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleCleanupIsIdempotent(t *testing.T) {
	d, err := Load(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatalf("second cleanup: %v", err)
	}
}
