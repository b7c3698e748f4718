package parsl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/provider"
)

// poisonProvider kills every block that picks up a listed task id: the
// in-package twin of the chaos harness, for tests that need to exercise the
// executor's quarantine bookkeeping directly.
type poisonProvider struct {
	poison map[int]bool

	mu     sync.Mutex
	blocks map[int]*poisonHandle
}

func newPoisonProvider(ids ...int) *poisonProvider {
	p := &poisonProvider{poison: map[int]bool{}, blocks: map[int]*poisonHandle{}}
	for _, id := range ids {
		p.poison[id] = true
	}
	return p
}

func (p *poisonProvider) Name() string { return "poison" }

func (p *poisonProvider) Launch(block, _ int) (provider.ManagerHandle, error) {
	h := &poisonHandle{p: p, block: block}
	p.mu.Lock()
	p.blocks[block] = h
	p.mu.Unlock()
	return h, nil
}

func (p *poisonProvider) Status() map[int]provider.BlockStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[int]provider.BlockStatus{}
	for id, h := range p.blocks {
		st := provider.BlockRunning
		if h.dead.Load() {
			st = provider.BlockDead
		}
		out[id] = provider.BlockStatus{State: st}
	}
	return out
}

func (p *poisonProvider) Cancel() error { return nil }

type poisonHandle struct {
	p     *poisonProvider
	block int
	dead  atomicBool
}

// atomicBool avoids importing sync/atomic twice under different names in this
// file's two handle types.
type atomicBool struct {
	mu sync.Mutex
	v  bool
}

func (b *atomicBool) Load() bool   { b.mu.Lock(); defer b.mu.Unlock(); return b.v }
func (b *atomicBool) Store(v bool) { b.mu.Lock(); b.v = v; b.mu.Unlock() }

func (h *poisonHandle) Block() int { return h.block }

func (h *poisonHandle) Slots() int { return 2 }

func (h *poisonHandle) Dispatch(batch []*provider.Task) {
	for _, t := range batch {
		switch {
		case h.dead.Load():
			t.Done(nil, fmt.Errorf("block %d is dead: %w", h.block, provider.ErrNotStarted))
		case h.p.poison[t.ID]:
			h.dead.Store(true)
			t.Done(nil, fmt.Errorf("block %d killed by task %d: %w", h.block, t.ID, provider.ErrWorkerLost))
		default:
			go func() { t.Done(t.Fn()) }()
		}
	}
}

func (h *poisonHandle) Alive() bool  { return !h.dead.Load() }
func (h *poisonHandle) Close() error { return nil }

// TestPoisonTaskQuarantine is the acceptance scenario: a task that kills
// every worker it lands on must fail with ErrPoisonTask after exactly
// MaxRedispatch redispatches, while co-resident work keeps succeeding.
func TestPoisonTaskQuarantine(t *testing.T) {
	const maxRedispatch = 3
	prov := newPoisonProvider(0) // the first submitted task is poison
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", Provider: prov,
		WorkersPerNode: 2, MaxBlocks: 3, MinBlocks: 1, InitBlocks: 1,
		HeartbeatPeriod: 20 * time.Millisecond,
		MaxRedispatch:   maxRedispatch,
	})
	// Retries > 0 proves the DFK does not burn retry budget relaunching a
	// quarantined task.
	d := loadTest(t, Config{Executors: []Executor{htex}, Retries: 2})
	mirror := mirrorEvents(t, d)

	poison := NewGoApp("poison", func(Args) (any, error) { return "unreachable", nil })
	pfut := d.Submit(poison, Args{}, CallOpts{})
	if pfut.TaskID() != 0 {
		t.Fatalf("poison task id = %d, want 0 (update the provider's poison set)", pfut.TaskID())
	}
	ok := NewGoApp("ok", func(args Args) (any, error) { return args["i"], nil })
	var futs []*AppFuture
	for i := 0; i < 16; i++ {
		futs = append(futs, d.Submit(ok, Args{"i": i}, CallOpts{}))
	}

	_, err := pfut.Wait()
	if !errors.Is(err, ErrPoisonTask) {
		t.Fatalf("poison task error = %v, want ErrPoisonTask", err)
	}
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatalf("co-resident tasks: %v", err)
	}
	for i, f := range futs {
		res, rerr, _ := f.TryResult()
		if rerr != nil || res != i {
			t.Fatalf("co-resident task %d: res=%v err=%v", i, res, rerr)
		}
	}

	st := htex.Stats()
	if st.TasksQuarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.TasksQuarantined)
	}
	if htex.Quarantined() != 1 {
		t.Errorf("Quarantined() = %d, want 1", htex.Quarantined())
	}
	if len(st.Quarantined) != 1 {
		t.Fatalf("quarantine records = %+v, want exactly one", st.Quarantined)
	}
	rec := st.Quarantined[0]
	if rec.TaskID != 0 {
		t.Errorf("record task id = %d, want 0", rec.TaskID)
	}
	if rec.Redispatches != maxRedispatch {
		t.Errorf("record redispatches = %d, want exactly %d", rec.Redispatches, maxRedispatch)
	}
	if rec.LastError == "" || rec.Time.IsZero() {
		t.Errorf("record incomplete: %+v", rec)
	}
	// Every redispatch surfaces as an extra launch in the monitoring stream,
	// so the terminal event carries at least MaxRedispatch tries (possibly
	// more: landing on an already-dead manager relaunches without burning
	// budget). Exactly one terminal event proves the DFK retry gate held —
	// a retry of the quarantined task would have emitted a second one.
	failures, tries := 0, 0
	for _, ev := range mirror.all() {
		if ev.TaskID == 0 && ev.State == StateFailed {
			failures++
			tries = ev.Tries
		}
	}
	if failures != 1 {
		t.Errorf("poison task terminal events = %d, want exactly 1", failures)
	}
	if tries < maxRedispatch {
		t.Errorf("poison task tries = %d, want >= %d (one per budget-consuming redispatch)", tries, maxRedispatch)
	}
}

// TestRedispatchDisabled: MaxRedispatch < 0 must keep the legacy unbounded
// behavior — a once-flaky task still completes, nothing is quarantined.
func TestRedispatchUnbounded(t *testing.T) {
	prov := &flakyProvider{}
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", Provider: prov,
		WorkersPerNode: 2, MaxBlocks: 2, MinBlocks: 1, InitBlocks: 1,
		HeartbeatPeriod: 20 * time.Millisecond,
		MaxRedispatch:   -1,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	app := NewGoApp("work", func(args Args) (any, error) { return args["i"], nil })
	var futs []*AppFuture
	for i := 0; i < 20; i++ {
		futs = append(futs, d.Submit(app, Args{"i": i}, CallOpts{}))
	}
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatal(err)
	}
	if got := htex.Quarantined(); got != 0 {
		t.Errorf("quarantined = %d, want 0 with redispatch cap disabled", got)
	}
}

// TestEngineDeadline: a task whose walltime deadline passes while it is still
// executing must fail with ErrDeadlineExceeded from the engine-side watchdog.
func TestEngineDeadline(t *testing.T) {
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", WorkersPerNode: 2, MaxBlocks: 1, InitBlocks: 1,
		HeartbeatPeriod: 20 * time.Millisecond,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	release := make(chan struct{})
	defer close(release)
	slow := NewGoApp("slow", func(Args) (any, error) {
		<-release
		return "late", nil
	})
	fut := d.Submit(slow, Args{}, CallOpts{Deadline: time.Now().Add(40 * time.Millisecond)})
	_, err := fut.Wait()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if n := htex.Stats().Outstanding; n != 0 {
		t.Errorf("outstanding = %d after deadline failure, want 0", n)
	}

	// A task that finishes in time is untouched by its deadline.
	quick := NewGoApp("quick", func(Args) (any, error) { return "ok", nil })
	res, err := d.Submit(quick, Args{}, CallOpts{Deadline: time.Now().Add(5 * time.Second)}).Wait()
	if err != nil || res != "ok" {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

// TestConfigWalltimeDefault: the DFK-level task-walltime default applies when
// a submission sets no explicit deadline, and the explicit deadline wins when
// tighter.
func TestTaskDeadlineDerivation(t *testing.T) {
	if got := taskDeadline(time.Time{}, 0); !got.IsZero() {
		t.Errorf("no walltime, no deadline: got %v", got)
	}
	explicit := time.Now().Add(time.Hour)
	if got := taskDeadline(explicit, 0); !got.Equal(explicit) {
		t.Errorf("explicit only: got %v", got)
	}
	got := taskDeadline(time.Time{}, 50*time.Millisecond)
	if d := time.Until(got); d <= 0 || d > time.Second {
		t.Errorf("walltime only: deadline %v from now", d)
	}
	// The tighter bound wins in both orders.
	if got := taskDeadline(explicit, 50*time.Millisecond); !got.Before(explicit) {
		t.Errorf("walltime tighter: got %v", got)
	}
	near := time.Now().Add(10 * time.Millisecond)
	if got := taskDeadline(near, time.Hour); !got.Equal(near) {
		t.Errorf("explicit tighter: got %v", got)
	}
}

// TestScaleBackoff: relaunch backoff doubles per consecutive failure with
// ±25% jitter and saturates at the cap.
func TestScaleBackoff(t *testing.T) {
	base := 100 * time.Millisecond
	for fails := 1; fails <= 6; fails++ {
		want := base << (fails - 1)
		for i := 0; i < 50; i++ {
			got := scaleBackoff(base, fails)
			if got < want-want/4 || got >= want+want/4 {
				t.Fatalf("fails=%d: backoff %v outside [%v, %v)", fails, got, want-want/4, want+want/4)
			}
		}
	}
	// Saturation: deep failure counts stay near the cap (within jitter).
	if got := scaleBackoff(base, 60); got >= maxScaleBackoff+maxScaleBackoff/4 || got < maxScaleBackoff-maxScaleBackoff/4 {
		t.Fatalf("saturated backoff = %v, want ~%v", got, maxScaleBackoff)
	}
	// Degenerate inputs never yield a negative wait.
	if got := scaleBackoff(base, 0); got <= 0 {
		t.Fatalf("backoff(0 fails) = %v", got)
	}
}

// TestScaleFailureBackoff: consecutive launch failures must push the next
// relaunch attempt out (bounded retry, not a tight heartbeat loop).
func TestScaleFailureBackoff(t *testing.T) {
	prov := &countingFailProvider{}
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", Provider: prov,
		WorkersPerNode: 1, MaxBlocks: 1, MinBlocks: 1, InitBlocks: 1,
		HeartbeatPeriod: 10 * time.Millisecond,
	})
	if err := htex.Start(); err != nil {
		t.Fatal(err)
	}
	defer htex.Shutdown()
	// The initial block dies immediately; every relaunch attempt fails, so
	// the monitor keeps retrying under MinBlocks pressure.
	deadline := time.Now().Add(2 * time.Second)
	for prov.count() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n := prov.count()
	if n < 2 {
		t.Fatalf("launch attempts = %d, want >= 2 (monitor must keep retrying)", n)
	}
	// With exponential backoff the attempt counter must stay far below what a
	// flat heartbeat-period retry loop would produce (~100 in 1s at 10ms).
	time.Sleep(1 * time.Second)
	if grown := prov.count() - n; grown > 20 {
		t.Errorf("%d relaunch attempts in 1s — backoff is not being applied", grown)
	}
}

// countingFailProvider's first launch yields a block that is already dead;
// every later launch fails outright. The heartbeat reaps the dead block and
// the monitor's relaunch attempts count the provider's launch calls.
type countingFailProvider struct {
	mu       sync.Mutex
	launches int
}

func (p *countingFailProvider) Name() string { return "failing" }
func (p *countingFailProvider) Launch(block, _ int) (provider.ManagerHandle, error) {
	p.mu.Lock()
	p.launches++
	first := p.launches == 1
	p.mu.Unlock()
	if first {
		return deadHandle{block: block}, nil
	}
	return nil, errors.New("no capacity")
}
func (p *countingFailProvider) Status() map[int]provider.BlockStatus { return nil }
func (p *countingFailProvider) Cancel() error                        { return nil }
func (p *countingFailProvider) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.launches
}

type deadHandle struct{ block int }

func (h deadHandle) Block() int { return h.block }
func (h deadHandle) Slots() int { return 1 }
func (h deadHandle) Dispatch(batch []*provider.Task) {
	for _, t := range batch {
		t.Done(nil, fmt.Errorf("dead on arrival: %w", provider.ErrNotStarted))
	}
}
func (h deadHandle) Alive() bool  { return false }
func (h deadHandle) Close() error { return nil }
