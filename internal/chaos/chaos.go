// Package chaos is the deterministic fault-injection harness: a seeded
// ExecutionProvider wrapper that kills workers, fails launches, and delays
// executions on a fixed schedule, so failure-policy behavior (bounded
// redispatch, poison-task quarantine, scale-out backoff) is testable without
// racing external signals.
//
// Determinism is the design constraint. Which faults fire is driven entirely
// by task identity and per-handle dispatch counters — never by the random
// source — so the same scenario produces the same quarantine outcome under
// any seed. The seed only shapes *timing* (injected delays), which is exactly
// the part allowed to differ between runs while outcomes must not.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provider"
)

// Config selects which faults the wrapped provider injects.
type Config struct {
	// Seed initializes the delay source. Two runs with different seeds see
	// different injected latencies but identical fault outcomes.
	Seed int64
	// KillTaskIDs lists DFK task ids that are poison: every worker handle
	// that is dispatched one dies (handle marked dead, underlying block
	// closed) without executing the task, which fails with ErrWorkerLost.
	// Independent of scheduling order, so redispatch-budget tests are exact.
	KillTaskIDs []int
	// KillEveryN kills the handle on its Nth, 2Nth, ... dispatched task
	// (per-handle counter; 0 disables) — steady worker churn.
	KillEveryN int
	// MaxKills bounds total injected kills across all handles (0 = no bound).
	MaxKills int
	// FailLaunches fails the provider's first N block launches before the
	// inner provider is consulted — exercises the executor's scale-out
	// backoff path.
	FailLaunches int
	// MaxDelay adds a seeded pseudo-random delay in [0, MaxDelay) before
	// each task's completion is delivered (0 disables). Timing-only: never
	// changes outcomes.
	MaxDelay time.Duration
	// DropFrames, when the wrapped provider can sever live connections
	// (fabric.NetProvider), severs the connection of the block executing
	// every listed task id instead of returning ErrWorkerLost directly.
	DropFrames bool
}

// Stats counts the faults injected so far.
type Stats struct {
	Kills          int64 `json:"kills"`
	LaunchesFailed int64 `json:"launchesFailed"`
	Delays         int64 `json:"delays"`
	ConnsSevered   int64 `json:"connsSevered"`
}

// ConnKiller is the optional capability of providers that can sever a live
// worker transport (fabric.NetProvider implements it).
type ConnKiller interface {
	KillConnection(block int) bool
}

// Provider wraps an ExecutionProvider with deterministic fault injection.
type Provider struct {
	inner provider.ExecutionProvider
	cfg   Config

	killIDs map[int]bool

	mu       sync.Mutex
	rng      *rand.Rand
	launches int

	kills          atomic.Int64
	launchesFailed atomic.Int64
	delays         atomic.Int64
	connsSevered   atomic.Int64
}

// Wrap builds the fault-injecting wrapper around inner.
func Wrap(inner provider.ExecutionProvider, cfg Config) *Provider {
	ids := make(map[int]bool, len(cfg.KillTaskIDs))
	for _, id := range cfg.KillTaskIDs {
		ids[id] = true
	}
	return &Provider{
		inner:   inner,
		cfg:     cfg,
		killIDs: ids,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Name implements provider.ExecutionProvider.
func (p *Provider) Name() string { return "chaos+" + p.inner.Name() }

// Launch implements provider.ExecutionProvider, failing the first
// FailLaunches attempts before delegating.
func (p *Provider) Launch(block, slots int) (provider.ManagerHandle, error) {
	p.mu.Lock()
	p.launches++
	n := p.launches
	p.mu.Unlock()
	if n <= p.cfg.FailLaunches {
		p.launchesFailed.Add(1)
		return nil, fmt.Errorf("chaos: injected launch failure %d/%d", n, p.cfg.FailLaunches)
	}
	h, err := p.inner.Launch(block, slots)
	if err != nil {
		return nil, err
	}
	return &handle{p: p, inner: h}, nil
}

// Status implements provider.ExecutionProvider.
func (p *Provider) Status() map[int]provider.BlockStatus { return p.inner.Status() }

// Cancel implements provider.ExecutionProvider.
func (p *Provider) Cancel() error { return p.inner.Cancel() }

// RemoteCapable forwards the wrapped provider's remote capability, so chaos
// wrapping does not silently change which execution path tasks take.
func (p *Provider) RemoteCapable() bool {
	if rc, ok := p.inner.(provider.RemoteCapable); ok {
		return rc.RemoteCapable()
	}
	return false
}

// Stats reports the faults injected so far.
func (p *Provider) Stats() Stats {
	return Stats{
		Kills:          p.kills.Load(),
		LaunchesFailed: p.launchesFailed.Load(),
		Delays:         p.delays.Load(),
		ConnsSevered:   p.connsSevered.Load(),
	}
}

// delay returns the next seeded execution delay (0 when disabled).
func (p *Provider) delay() time.Duration {
	if p.cfg.MaxDelay <= 0 {
		return 0
	}
	p.mu.Lock()
	d := time.Duration(p.rng.Int63n(int64(p.cfg.MaxDelay)))
	p.mu.Unlock()
	p.delays.Add(1)
	return d
}

// shouldKill decides — deterministically — whether dispatching this task
// kills the worker. nth is the handle's own dispatch counter.
func (p *Provider) shouldKill(taskID int, nth int64) bool {
	if p.cfg.MaxKills > 0 && p.kills.Load() >= int64(p.cfg.MaxKills) {
		return false
	}
	if p.killIDs[taskID] {
		return true
	}
	return p.cfg.KillEveryN > 0 && nth%int64(p.cfg.KillEveryN) == 0
}

// handle wraps one launched block.
type handle struct {
	p          *Provider
	inner      provider.ManagerHandle
	dead       atomic.Bool
	dispatches atomic.Int64
}

// Block implements provider.ManagerHandle.
func (h *handle) Block() int { return h.inner.Block() }

// Slots implements provider.ManagerHandle.
func (h *handle) Slots() int { return h.inner.Slots() }

// Alive implements provider.ManagerHandle: an injected kill is sticky.
func (h *handle) Alive() bool { return !h.dead.Load() && h.inner.Alive() }

// Close implements provider.ManagerHandle.
func (h *handle) Close() error { return h.inner.Close() }

// Dispatch implements provider.ManagerHandle, injecting the configured
// faults in dispatch order. A task that triggers a kill never reaches the
// worker and fails with ErrWorkerLost; the tasks dispatched ahead of it are
// handed to the worker before it dies (the dying block completes them as it
// would on a real death), the ones behind it never start.
func (h *handle) Dispatch(batch []*provider.Task) {
	if h.dead.Load() {
		notStarted(batch, "chaos: block already killed")
		return
	}
	for i, t := range batch {
		if !h.p.shouldKill(t.ID, h.dispatches.Add(1)) {
			continue
		}
		h.inner.Dispatch(h.p.delayed(batch[:i]))
		h.kill(t)
		notStarted(batch[i+1:], fmt.Sprintf("chaos: worker killed by task %d", t.ID))
		return
	}
	h.inner.Dispatch(h.p.delayed(batch))
}

// kill takes the block down for task t, which fails with ErrWorkerLost.
func (h *handle) kill(t *provider.Task) {
	h.p.kills.Add(1)
	h.dead.Store(true)
	if h.p.cfg.DropFrames {
		if ck, ok := h.p.inner.(ConnKiller); ok && ck.KillConnection(h.inner.Block()) {
			// The severed transport fails the block's outstanding tasks on
			// its own; the killing task never reaches the dying worker.
			h.p.connsSevered.Add(1)
			t.Done(nil, fmt.Errorf("chaos: severed connection of block %d for task %d: %w",
				h.inner.Block(), t.ID, provider.ErrWorkerLost))
			return
		}
	}
	// Close the real block so the kill is not merely cosmetic: worker
	// processes exit, heartbeats stop, Status reflects the death.
	_ = h.inner.Close()
	t.Done(nil, fmt.Errorf("chaos: killed worker on task %d: %w", t.ID, provider.ErrWorkerLost))
}

// notStarted fails tasks that never reached a worker.
func notStarted(tasks []*provider.Task, why string) {
	for _, t := range tasks {
		t.Done(nil, fmt.Errorf("%s: %w", why, provider.ErrNotStarted))
	}
}

// delayed wraps each task's completion in a seeded delay (MaxDelay), or
// returns the batch untouched when delays are off.
func (p *Provider) delayed(batch []*provider.Task) []*provider.Task {
	if p.cfg.MaxDelay <= 0 || len(batch) == 0 {
		return batch
	}
	out := make([]*provider.Task, len(batch))
	for i, t := range batch {
		d, done := p.delay(), t.Done
		dt := *t
		dt.Done = func(res any, err error) {
			time.AfterFunc(d, func() { done(res, err) })
		}
		out[i] = &dt
	}
	return out
}
