package parsl

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/provider"
)

// trackingProvider wraps block accounting with peak tracking so tests can
// assert MaxBlocks is a hard ceiling on simultaneously held blocks.
type trackingProvider struct {
	inner   provider.LocalProvider
	mu      sync.Mutex
	granted int
	peak    int
	total   int
}

func (p *trackingProvider) Name() string { return "tracking" }

func (p *trackingProvider) Launch(block, slots int) (provider.ManagerHandle, error) {
	h, err := p.inner.Launch(block, slots)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.granted++
	p.total++
	if p.granted > p.peak {
		p.peak = p.granted
	}
	p.mu.Unlock()
	return &trackingHandle{ManagerHandle: h, p: p}, nil
}

func (p *trackingProvider) Status() map[int]provider.BlockStatus { return p.inner.Status() }
func (p *trackingProvider) Cancel() error                        { return p.inner.Cancel() }

type trackingHandle struct {
	provider.ManagerHandle
	p    *trackingProvider
	once sync.Once
}

func (h *trackingHandle) Close() error {
	h.once.Do(func() {
		h.p.mu.Lock()
		h.p.granted--
		h.p.mu.Unlock()
	})
	return h.ManagerHandle.Close()
}

func (p *trackingProvider) snapshot() (granted, peak, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.granted, p.peak, p.total
}

// stressSubmitShutdown races many concurrent Submits against Shutdown and
// checks every done callback fires exactly once — never a send-on-closed-
// channel panic, never a lost task.
func stressSubmitShutdown(t *testing.T, ex Executor) {
	t.Helper()
	if err := ex.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 200
	var fired atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-start
			ex.Submit(&Task{ID: id, Fn: func() (any, error) { return id, nil }},
				func(any, error) { fired.Add(1) })
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := ex.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	close(start)
	wg.Wait()
	if err := ex.Shutdown(); err != nil { // idempotent, and awaits the drain
		t.Fatal(err)
	}
	if got := fired.Load(); got != n {
		t.Errorf("done callbacks fired %d times, want exactly %d", got, n)
	}
	// Post-shutdown submissions fail cleanly with ErrShutdown.
	errCh := make(chan error, 1)
	ex.Submit(&Task{ID: n, Fn: func() (any, error) { return nil, nil }},
		func(_ any, err error) { errCh <- err })
	if err := <-errCh; !errors.Is(err, ErrShutdown) {
		t.Errorf("post-shutdown submit error = %v, want ErrShutdown", err)
	}
}

func TestThreadPoolSubmitShutdownRace(t *testing.T) {
	stressSubmitShutdown(t, NewThreadPoolExecutor("threads", 4))
}

func TestHTEXSubmitShutdownRace(t *testing.T) {
	stressSubmitShutdown(t, NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", WorkersPerNode: 2, MaxBlocks: 4, InitBlocks: 1,
		HeartbeatPeriod: time.Millisecond, HeartbeatThreshold: time.Second,
	}))
}

// TestHTEXManagerLossRedispatch kills a pilot block mid-run and checks the
// heartbeat monitor reaps it, re-dispatches its buffered/in-flight tasks,
// and the run still completes with correct results — the Parsl paper's
// manager fault-tolerance contract.
func TestHTEXManagerLossRedispatch(t *testing.T) {
	provider := &trackingProvider{}
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", Provider: provider,
		WorkersPerNode: 1, Prefetch: 3, MaxBlocks: 2, InitBlocks: 2,
		HeartbeatPeriod: 2 * time.Millisecond, HeartbeatThreshold: 25 * time.Millisecond,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	mirror := mirrorEvents(t, d)

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(openGate) // unblock workers even if the test fails early
	app := NewGoApp("gated", func(args Args) (any, error) {
		<-gate
		return args["i"], nil
	})
	const n = 10
	futs := make([]*AppFuture, 0, n)
	for i := 0; i < n; i++ {
		futs = append(futs, d.Submit(app, Args{"i": i}, CallOpts{}))
	}
	// Kill block 0 only once it actually holds tasks, so the loss strands
	// work that must be re-dispatched.
	deadline := time.Now().Add(10 * time.Second)
	for htex.ManagerQueueDepths()[0] == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if htex.ManagerQueueDepths()[0] == 0 {
		t.Fatal("manager 0 never accepted a task")
	}
	if !htex.FailSimulation(0) {
		t.Fatal("FailSimulation(0) found no live manager")
	}
	if htex.FailSimulation(99) {
		t.Error("FailSimulation accepted an unknown manager ID")
	}
	// The monitor must declare the silent manager lost and re-dispatch its
	// tasks; nothing can complete before that because the gate is closed.
	for time.Now().Before(deadline) {
		if htex.Stats().ManagersLost > 0 && htex.Redispatched() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if htex.Stats().ManagersLost == 0 {
		t.Fatal("monitor never declared the silent manager lost")
	}
	if htex.Redispatched() == 0 {
		t.Fatal("no tasks re-dispatched after manager loss")
	}
	openGate()
	for i, f := range futs {
		v, err := f.Wait()
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if v != i {
			t.Errorf("task %d returned %v", i, v)
		}
	}
	// The loss surfaced to the DFK: some task carries a second launch event.
	relaunched := map[int]int{}
	for _, ev := range mirror.all() {
		if ev.State == StateLaunched {
			relaunched[ev.TaskID]++
		}
	}
	max := 0
	for _, c := range relaunched {
		if c > max {
			max = c
		}
	}
	if max < 2 {
		t.Errorf("no task shows a re-dispatch launch event; launches per task = %v", relaunched)
	}
	stats := htex.Stats()
	if stats.ManagersLost == 0 {
		t.Errorf("stats report no lost managers: %+v", stats)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	granted, peak, _ := provider.snapshot()
	if peak > 2 {
		t.Errorf("peak granted blocks %d exceeds MaxBlocks 2", peak)
	}
	if granted != 0 {
		t.Errorf("provider still holds %d blocks after shutdown", granted)
	}
}

// TestHTEXScaleIn checks idle blocks are released down to MinBlocks and the
// executor scales back out on new demand.
func TestHTEXScaleIn(t *testing.T) {
	provider := &trackingProvider{}
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", Provider: provider,
		WorkersPerNode: 2, MaxBlocks: 3, MinBlocks: 1, InitBlocks: 3,
		HeartbeatPeriod: 5 * time.Millisecond, HeartbeatThreshold: time.Second,
		IdleTimeout: 15 * time.Millisecond,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	app := NewGoApp("quick", func(Args) (any, error) { return nil, nil })
	var futs []*AppFuture
	for i := 0; i < 30; i++ {
		futs = append(futs, d.Submit(app, Args{}, CallOpts{}))
	}
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatal(err)
	}
	// Idle blocks must be released until only MinBlocks remain granted.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		granted, _, _ := provider.snapshot()
		if htex.ConnectedManagers() == 1 && granted == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	granted, peak, _ := provider.snapshot()
	if htex.ConnectedManagers() != 1 || granted != 1 {
		t.Fatalf("after idle: managers=%d granted=%d, want 1/1 (MinBlocks)", htex.ConnectedManagers(), granted)
	}
	if peak > 3 {
		t.Errorf("peak granted %d exceeds MaxBlocks 3", peak)
	}
	if htex.Stats().BlocksScaledIn == 0 {
		t.Error("stats report no scaled-in blocks")
	}
	// New demand scales back out.
	gate := make(chan struct{})
	blocked := NewGoApp("blocked", func(Args) (any, error) { <-gate; return nil, nil })
	futs = futs[:0]
	for i := 0; i < 12; i++ {
		futs = append(futs, d.Submit(blocked, Args{}, CallOpts{}))
	}
	for htex.ConnectedManagers() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	regrown := htex.ConnectedManagers()
	close(gate)
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatal(err)
	}
	if regrown < 2 {
		t.Errorf("managers after new demand = %d, want scale-out to >= 2", regrown)
	}
}

// TestHTEXHealthyManagersNotReaped asserts the converse of loss detection:
// managers that keep heartbeating are never reaped, even across many
// monitor sweeps with no task traffic.
func TestHTEXHealthyManagersNotReaped(t *testing.T) {
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", WorkersPerNode: 1, MaxBlocks: 2, InitBlocks: 2,
		HeartbeatPeriod: time.Millisecond, HeartbeatThreshold: 500 * time.Millisecond,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	time.Sleep(20 * time.Millisecond) // many heartbeat/reap cycles
	if got := htex.ConnectedManagers(); got != 2 {
		t.Errorf("healthy managers reaped: %d live, want 2", got)
	}
	app := NewGoApp("ok", func(Args) (any, error) { return "ok", nil })
	if v, err := d.Submit(app, Args{}, CallOpts{}).Wait(); err != nil || v != "ok" {
		t.Errorf("submit after idle period: %v %v", v, err)
	}
	if htex.Stats().ManagersLost != 0 {
		t.Errorf("lost counter = %d for healthy executor", htex.Stats().ManagersLost)
	}
}

// TestMemoFailureNotPoisoned is the regression test for DFK memo poisoning:
// a failed memoized attempt must be evicted so the next identical submission
// re-executes, and its success must be re-memoized for later hits.
func TestMemoFailureNotPoisoned(t *testing.T) {
	d := loadTest(t, Config{Memoize: true})
	var calls atomic.Int64
	app := NewGoApp("flaky-memo", func(Args) (any, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("first attempt fails")
		}
		return "ok", nil
	})
	if _, err := d.Submit(app, Args{"x": 1}, CallOpts{}).Wait(); err == nil {
		t.Fatal("first attempt should fail")
	}
	v, err := d.Submit(app, Args{"x": 1}, CallOpts{}).Wait()
	if err != nil || v != "ok" {
		t.Fatalf("second attempt = %v, %v; want re-execution after evicting the failure", v, err)
	}
	v, err = d.Submit(app, Args{"x": 1}, CallOpts{}).Wait()
	if err != nil || v != "ok" {
		t.Fatalf("third attempt = %v, %v", v, err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("app ran %d times, want 2 (third submission memo-hits the success)", got)
	}
	if d.StateCounts()[StateMemoHit] != 1 {
		t.Errorf("memo hits = %d, want 1", d.StateCounts()[StateMemoHit])
	}
}

// TestUsageSummarySurvivesTruncation checks "tasks submitted" comes from
// dedicated counters, not a rescan of the (truncatable) event log.
func TestUsageSummarySurvivesTruncation(t *testing.T) {
	d := loadTest(t, Config{MaxEvents: 2})
	app := NewGoApp("counted", func(Args) (any, error) { return nil, nil })
	for i := 0; i < 10; i++ {
		if _, err := d.Submit(app, Args{}, CallOpts{}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	d.Wait()
	out := d.UsageSummary()
	if !strings.Contains(out, "tasks submitted: 10") {
		t.Errorf("summary undercounts after truncation:\n%s", out)
	}
	if !strings.Contains(out, "counted") {
		t.Errorf("summary lost per-app count:\n%s", out)
	}
}

// TestEventsForIndex checks the per-label index agrees with a filter of the
// full event stream and that ForgetLabel releases it.
func TestEventsForIndex(t *testing.T) {
	d := loadTest(t, Config{})
	mirror := mirrorEvents(t, d)
	app := NewGoApp("labeled", func(Args) (any, error) { return nil, nil })
	for i := 0; i < 5; i++ {
		label := "run-a"
		if i%2 == 1 {
			label = "run-b"
		}
		if _, err := d.Submit(app, Args{}, CallOpts{Label: label}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	d.Wait()
	want := map[string]int{}
	for _, ev := range mirror.all() {
		if ev.Label != "" {
			want[ev.Label]++
		}
	}
	for _, label := range []string{"run-a", "run-b"} {
		got := d.EventsFor(label)
		if len(got) != want[label] || len(got) == 0 {
			t.Errorf("EventsFor(%q) = %d events, want %d", label, len(got), want[label])
		}
		for _, ev := range got {
			if ev.Label != label {
				t.Errorf("EventsFor(%q) leaked event with label %q", label, ev.Label)
			}
		}
	}
	d.ForgetLabel("run-a")
	if got := d.EventsFor("run-a"); got != nil {
		t.Errorf("EventsFor after ForgetLabel = %d events, want none", len(got))
	}
	if got := d.EventsFor("run-b"); len(got) != want["run-b"] {
		t.Errorf("ForgetLabel(run-a) disturbed run-b: %d events", len(got))
	}
}

// TestSubmitAfterCleanup checks the DFK rejects post-shutdown submissions
// with a completed, failed future instead of racing executor shutdown.
func TestSubmitAfterCleanup(t *testing.T) {
	d, err := Load(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	app := NewGoApp("late", func(Args) (any, error) { return nil, nil })
	fut := d.Submit(app, Args{}, CallOpts{})
	if _, err := fut.Wait(); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after cleanup err = %v, want ErrShutdown", err)
	}
	if !strings.Contains(d.UsageSummary(), "tasks submitted: 1") {
		t.Error("rejected submission not counted in usage summary")
	}
}

// TestConfigSpecHTEXLifecycleKeys parses the new elasticity keys.
func TestConfigSpecHTEXLifecycleKeys(t *testing.T) {
	spec, err := ParseConfig([]byte(`
executor: htex
workers-per-node: 4
nodes: 3
min-blocks: 1
init-blocks: 2
idle-timeout: 250ms
heartbeat-period: 2s
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.MinBlocks != 1 || spec.InitBlocks != 2 ||
		spec.IdleTimeout != 250*time.Millisecond || spec.HeartbeatPeriod != 2*time.Second {
		t.Errorf("spec = %+v", spec)
	}
	if _, err := spec.Build(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"executor: htex\nnodes: 2\nmin-blocks: 3",
		"executor: htex\nnodes: 2\ninit-blocks: 3",
		"executor: htex\nidle-timeout: soon",
	} {
		if _, err := ParseConfig([]byte(bad)); err == nil {
			t.Errorf("ParseConfig(%q) succeeded", bad)
		}
	}
	// Bare numbers mean seconds.
	spec, err = ParseConfig([]byte("executor: htex\nidle-timeout: 30\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.IdleTimeout != 30*time.Second {
		t.Errorf("idle-timeout = %v, want 30s", spec.IdleTimeout)
	}
}

// TestLabelIndexBounded checks the per-label index evicts the
// least-recently-active labels in batches once MaxLabels is hit, keeping the
// newest labels intact.
func TestLabelIndexBounded(t *testing.T) {
	d := loadTest(t, Config{MaxLabels: 8})
	app := NewGoApp("labeled", func(Args) (any, error) { return nil, nil })
	for i := 0; i < 20; i++ {
		label := "run-" + string(rune('a'+i))
		if _, err := d.Submit(app, Args{}, CallOpts{Label: label}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	size := len(d.byLabel)
	d.mu.Unlock()
	if size > 8 {
		t.Errorf("label index holds %d labels, cap 8", size)
	}
	if got := d.EventsFor("run-" + string(rune('a'+19))); len(got) == 0 {
		t.Error("newest label was evicted")
	}
	if got := d.EventsFor("run-a"); got != nil {
		t.Error("oldest label survived past the cap")
	}
}
