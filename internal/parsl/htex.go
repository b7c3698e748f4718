package parsl

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provider"
)

// ErrPoisonTask marks a task quarantined after exhausting its redispatch
// budget: every block it landed on died under it, so handing it yet another
// block would only kill more workers. The DFK does not retry poison tasks.
var ErrPoisonTask = errors.New("poison task quarantined")

// ErrDeadlineExceeded marks a task failed by its walltime deadline — the
// engine-side enforcement behind the worker-side process kill.
var ErrDeadlineExceeded = errors.New("task deadline exceeded")

// HTEXConfig configures the HighThroughputExecutor.
type HTEXConfig struct {
	Label string
	// Provider launches pilot blocks: in-process goroutines
	// (provider.LocalProvider), worker subprocesses
	// (provider.ProcessProvider), or simulated batch allocations
	// (provider.SimProvider). Defaults to a LocalProvider.
	Provider       provider.ExecutionProvider
	MaxBlocks      int // maximum pilot blocks (nodes)
	MinBlocks      int // floor the idle scale-in never goes below
	InitBlocks     int // blocks to start immediately
	WorkersPerNode int // slots asked of each block
	// Prefetch is how many tasks a block holds queued beyond its busy slots,
	// so a slot that frees already has its next task on the worker. 0 uses
	// the default (one per slot); negative disables prefetch.
	Prefetch int
	// HeartbeatPeriod is how often managers report liveness and how often
	// the monitor reaps lost managers / rebalances blocks.
	HeartbeatPeriod time.Duration
	// HeartbeatThreshold is the silence after which a manager is declared
	// lost and its tasks re-dispatched. Defaults to 3× HeartbeatPeriod.
	HeartbeatThreshold time.Duration
	// IdleTimeout releases a block whose manager has had no work for this
	// long (never below MinBlocks). Zero disables scale-in.
	IdleTimeout time.Duration
	// MaxRedispatch caps worker-loss re-dispatches per task. Past the cap the
	// task fails with ErrPoisonTask and is quarantined instead of being handed
	// another block to kill. 0 uses the default (3); negative disables the
	// cap, restoring the old unbounded behavior.
	MaxRedispatch int
}

func (c *HTEXConfig) fill() {
	if c.Label == "" {
		c.Label = "htex"
	}
	if c.Provider == nil {
		c.Provider = &provider.LocalProvider{}
	}
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = 1
	}
	if c.MinBlocks < 0 {
		c.MinBlocks = 0
	}
	if c.MinBlocks > c.MaxBlocks {
		c.MinBlocks = c.MaxBlocks
	}
	if c.InitBlocks <= 0 {
		c.InitBlocks = 1
	}
	if c.InitBlocks < c.MinBlocks {
		c.InitBlocks = c.MinBlocks
	}
	if c.InitBlocks > c.MaxBlocks {
		c.InitBlocks = c.MaxBlocks
	}
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 1
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 5 * time.Second
	}
	if c.HeartbeatThreshold <= 0 {
		c.HeartbeatThreshold = 3 * c.HeartbeatPeriod
	}
	// A threshold at or below the beat period would reap healthy managers
	// on every sweep (beats land right at the detection boundary).
	if c.HeartbeatThreshold < 2*c.HeartbeatPeriod {
		c.HeartbeatThreshold = 2 * c.HeartbeatPeriod
	}
	if c.IdleTimeout < 0 {
		c.IdleTimeout = 0
	}
	if c.MaxRedispatch == 0 {
		c.MaxRedispatch = defaultMaxRedispatch
	}
}

// window is how many tasks a block with the given slots holds outstanding:
// its slots plus the prefetch.
func (c *HTEXConfig) window(slots int) int {
	switch {
	case c.Prefetch == 0:
		return 2 * slots
	case c.Prefetch < 0:
		return slots
	default:
		return slots + c.Prefetch
	}
}

// defaultMaxRedispatch is the redispatch budget when HTEXConfig leaves
// MaxRedispatch zero: enough to survive a few genuine node losses, small
// enough that a poison task cannot SIGKILL-cycle the fleet.
const defaultMaxRedispatch = 3

// maxQuarantineRecords bounds the per-executor quarantine history kept for
// Stats()//healthz.
const maxQuarantineRecords = 64

// HighThroughputExecutor reproduces Parsl's pilot-job executor: tasks flow
// through an interchange queue to per-block managers, and each manager keeps
// its block's slots busy with a prefetch window of queued tasks behind them.
// Blocks are obtained from a Provider, decoupling task submission from
// resource allocation.
//
// The executor is elastic and fault tolerant, per the Parsl paper's HTEX
// contract: a single monitor goroutine owns every scaling decision — it
// scales out (serialized, bounded by MaxBlocks, monotonic manager IDs) when
// demand exceeds capacity, releases blocks idle past IdleTimeout (never below
// MinBlocks), and declares managers silent past HeartbeatThreshold lost,
// releasing their block and re-dispatching their tasks. A re-dispatched task
// may execute twice if the lost manager was secretly still running it; the
// queued.fired guard makes the completion callback exactly-once regardless.
type HighThroughputExecutor struct {
	cfg HTEXConfig

	lc          *lifecycle
	interchange chan *queued
	nudge       chan struct{} // submit → monitor demand hint

	mu           sync.Mutex
	managers     []*manager
	retiring     []*manager // reaped dead blocks still completing their tasks
	nextID       int        // monotonic block/manager IDs, never reused
	launched     int        // blocks successfully launched (the ledger)
	scaleErr     error      // last unrecovered provider error (for Shutdown)
	scaleRetryAt time.Time  // provider-error backoff for scaling attempts
	scaleFails   int        // consecutive failed scale-outs (backoff exponent)
	parked       []parkedTask
	quarRecords  []QuarantineRecord

	inFlight     atomic.Int64
	lost         atomic.Int64
	scaledIn     atomic.Int64
	redispatched atomic.Int64
	requeued     atomic.Int64
	quarantined  atomic.Int64
	deadlined    atomic.Int64

	wg sync.WaitGroup
}

// parkedTask is a re-enqueue that did not fit the interchange, with the
// counter its eventual success increments (nil for a silent hand-back).
type parkedTask struct {
	q       *queued
	counter *atomic.Int64
}

// manager is one pilot block: a dispatch goroutine that keeps the block's
// window of tasks outstanding through the provider's ManagerHandle, and a
// heartbeat. It tracks the tasks it has handed the block but not seen
// complete (owned) so the monitor can re-dispatch them if the block goes
// silent.
type manager struct {
	id     int
	handle provider.ManagerHandle
	window int // slots + prefetch: the most tasks outstanding on the block

	stop     chan struct{}
	wake     chan struct{} // a completion freed room in the window
	stopOnce sync.Once
	relOnce  sync.Once

	failed    atomic.Bool // known-dead block (worker lost): reaped on next sweep
	silent    atomic.Bool // FailSimulation: stops heartbeating, detected by silence
	lastBeat  atomic.Int64
	lastBusy  atomic.Int64
	completed atomic.Int64
	// outstanding counts dispatched tasks whose completion has not finished
	// running; it bounds the window and tells shutdown when the block is
	// drained.
	outstanding atomic.Int64

	ownedMu sync.Mutex
	owned   map[*queued]struct{}
	retired bool // set by takeOwned: no new ownership may be accepted
}

func newManager(id int, handle provider.ManagerHandle, window int) *manager {
	now := time.Now().UnixNano()
	m := &manager{
		id:     id,
		handle: handle,
		window: window,
		stop:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
		owned:  map[*queued]struct{}{},
	}
	m.lastBeat.Store(now)
	m.lastBusy.Store(now)
	return m
}

func (m *manager) beat() { m.lastBeat.Store(time.Now().UnixNano()) }

func (m *manager) markBusy() { m.lastBusy.Store(time.Now().UnixNano()) }

func (m *manager) kill() { m.stopOnce.Do(func() { close(m.stop) }) }

func (m *manager) stopped() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// signal wakes the dispatch goroutine after a completion.
func (m *manager) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *manager) releaseBlock() {
	if m.handle != nil {
		m.relOnce.Do(func() { m.handle.Close() })
	}
}

// addOwned registers a task with this manager. It reports false — refusing
// the task — once the reaper has swept the manager (takeOwned), closing the
// race where a dying dispatcher accepts a task after the sweep and strands
// it on a dead block.
func (m *manager) addOwned(q *queued) bool {
	m.ownedMu.Lock()
	defer m.ownedMu.Unlock()
	if m.retired {
		return false
	}
	m.owned[q] = struct{}{}
	return true
}

// disown releases a task, reporting whether this manager still owned it —
// i.e. whether the caller, not the reaper's sweep, decides its fate.
func (m *manager) disown(q *queued) bool {
	m.ownedMu.Lock()
	defer m.ownedMu.Unlock()
	_, mine := m.owned[q]
	delete(m.owned, q)
	return mine
}

func (m *manager) ownedCount() int {
	m.ownedMu.Lock()
	defer m.ownedMu.Unlock()
	return len(m.owned)
}

// takeOwned retires the manager and drains its unfinished tasks. After it
// returns, addOwned refuses new tasks, so exactly one party re-dispatches
// every stranded task.
func (m *manager) takeOwned() []*queued {
	m.ownedMu.Lock()
	defer m.ownedMu.Unlock()
	m.retired = true
	out := make([]*queued, 0, len(m.owned))
	for q := range m.owned {
		out = append(out, q)
	}
	m.owned = map[*queued]struct{}{}
	return out
}

// NewHighThroughputExecutor builds an HTEX from config.
func NewHighThroughputExecutor(cfg HTEXConfig) *HighThroughputExecutor {
	cfg.fill()
	return &HighThroughputExecutor{
		cfg:         cfg,
		lc:          newLifecycle(),
		interchange: make(chan *queued, 65536),
		nudge:       make(chan struct{}, 1),
	}
}

// Label implements Executor.
func (e *HighThroughputExecutor) Label() string { return e.cfg.Label }

// AcceptsRemoteSpecs implements RemoteSpecTarget: true when the provider's
// blocks execute serialized tasks out of process.
func (e *HighThroughputExecutor) AcceptsRemoteSpecs() bool {
	rc, ok := e.cfg.Provider.(provider.RemoteCapable)
	return ok && rc.RemoteCapable()
}

// Start launches the initial pilot blocks and the monitor.
func (e *HighThroughputExecutor) Start() error {
	if !e.lc.start() {
		return nil
	}
	for i := 0; i < e.cfg.InitBlocks; i++ {
		if err := e.scaleOut(); err != nil {
			return err
		}
	}
	e.wg.Add(1)
	go e.monitor()
	return nil
}

// Submit implements Executor. Tasks enter the interchange under the
// lifecycle's read gate (no send can race Shutdown's close); a manager with
// room in its window pulls them. Submission nudges the monitor for
// demand-based scale-out.
func (e *HighThroughputExecutor) Submit(t *Task, done func(any, error)) {
	q := &queued{task: t, done: done}
	e.inFlight.Add(1)
	if !e.lc.submit(func() { e.interchange <- q }) {
		e.inFlight.Add(-1)
		if q.fire() {
			done(nil, fmt.Errorf("executor %s is %w", e.cfg.Label, ErrShutdown))
		}
		return
	}
	select {
	case e.nudge <- struct{}{}:
	default:
	}
}

// monitor is the single goroutine that owns every scaling decision: reaping
// lost managers, demand-based scale-out, and idle scale-in. Serializing them
// here is what makes MaxBlocks a hard bound and manager IDs unique.
func (e *HighThroughputExecutor) monitor() {
	defer e.wg.Done()
	period := e.cfg.HeartbeatPeriod
	if e.cfg.IdleTimeout > 0 && e.cfg.IdleTimeout < period {
		period = e.cfg.IdleTimeout
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-e.lc.done:
			return
		case <-e.nudge:
			// A nudge signals demand (Submit) or a block death observed by a
			// completion (failBlock): reap promptly so stranded tasks
			// re-dispatch without waiting out a heartbeat period.
			e.reapLost()
			e.ensureMinBlocks()
			e.scaleToDemand()
		case <-ticker.C:
			e.drainParked()
			e.reapLost()
			e.ensureMinBlocks()
			e.scaleToDemand()
			e.scaleInIdle()
		}
	}
}

// scaleWhile serially adds blocks while need(liveBlocks) holds, up to
// MaxBlocks. A provider error records the failure for Shutdown and backs
// scaling off exponentially with jitter — transient allocation failures must
// not disable elasticity (or the MinBlocks floor) forever, but a provider in
// sustained failure must not be hammered once per heartbeat either. Monitor
// goroutine (or Start) only.
func (e *HighThroughputExecutor) scaleWhile(need func(blocks int) bool) {
	for !e.lc.stopped() {
		e.mu.Lock()
		blocks := len(e.managers)
		retryAt := e.scaleRetryAt
		e.mu.Unlock()
		if blocks >= e.cfg.MaxBlocks || time.Now().Before(retryAt) || !need(blocks) {
			return
		}
		if err := e.scaleOut(); err != nil {
			e.mu.Lock()
			e.scaleErr = err
			e.scaleFails++
			e.scaleRetryAt = time.Now().Add(scaleBackoff(e.cfg.HeartbeatPeriod, e.scaleFails))
			e.mu.Unlock()
			return
		}
		e.mu.Lock()
		e.scaleErr = nil
		e.scaleFails = 0
		e.scaleRetryAt = time.Time{}
		e.mu.Unlock()
	}
}

// maxScaleBackoff caps the wait between block-relaunch attempts against a
// failing provider.
const maxScaleBackoff = 2 * time.Minute

// scaleBackoff is the wait before the next scale-out attempt after fails
// consecutive provider errors: exponential from the heartbeat period, capped,
// with ±25% jitter so executors recovering from a shared provider outage do
// not relaunch in lockstep.
func scaleBackoff(base time.Duration, fails int) time.Duration {
	if fails < 1 {
		fails = 1
	}
	d := base
	for i := 1; i < fails && d < maxScaleBackoff; i++ {
		d *= 2
	}
	if d > maxScaleBackoff {
		d = maxScaleBackoff
	}
	// Jitter in [0.75d, 1.25d).
	return d - d/4 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// scaleToDemand adds blocks while outstanding work exceeds what the live
// blocks' windows hold. Monitor goroutine only.
func (e *HighThroughputExecutor) scaleToDemand() {
	perBlock := e.cfg.window(e.cfg.WorkersPerNode)
	e.scaleWhile(func(blocks int) bool {
		return e.inFlight.Load() > int64(blocks*perBlock)
	})
}

// scaleOut launches one block through the provider and starts its manager.
// Called from Start (before the monitor exists) and the monitor goroutine,
// never concurrently — that serialization keeps IDs unique and MaxBlocks a
// hard ceiling on simultaneously held blocks.
func (e *HighThroughputExecutor) scaleOut() error {
	e.mu.Lock()
	if len(e.managers) >= e.cfg.MaxBlocks {
		e.mu.Unlock()
		return nil
	}
	// The block id is assigned before Launch so the provider can key its
	// Status map; a failed launch burns the id (monotonic, never reused) but
	// only successful launches count in the blocks-launched ledger.
	id := e.nextID
	e.nextID++
	e.mu.Unlock()

	handle, err := e.cfg.Provider.Launch(id, e.cfg.WorkersPerNode)
	if err != nil {
		return fmt.Errorf("htex %s: provider %s: %w", e.cfg.Label, e.cfg.Provider.Name(), err)
	}
	e.mu.Lock()
	e.launched++
	m := newManager(id, handle, e.cfg.window(handle.Slots()))
	e.managers = append(e.managers, m)
	e.mu.Unlock()
	e.startManager(m)
	return nil
}

// failBlock marks a manager's block dead after a completion reported its
// loss, and nudges the monitor to reap it now.
func (e *HighThroughputExecutor) failBlock(m *manager) {
	m.failed.Store(true)
	m.kill()
	select {
	case e.nudge <- struct{}{}:
	default:
	}
}

// startManager launches the block's dispatch goroutine and heartbeat.
func (e *HighThroughputExecutor) startManager(m *manager) {
	e.wg.Add(2)
	go e.dispatchLoop(m)

	// Heartbeat: liveness reporting on HeartbeatPeriod, gated on the
	// provider handle's health. A failed manager (dead worker process,
	// FailSimulation) goes silent, exactly like a crashed pilot job.
	go func() {
		defer e.wg.Done()
		ticker := time.NewTicker(e.cfg.HeartbeatPeriod)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-e.lc.done:
				return
			case <-ticker.C:
				if m.failed.Load() || m.silent.Load() {
					continue
				}
				if m.handle.Alive() {
					m.beat()
				} else {
					e.failBlock(m)
				}
			}
		}
	}()
}

// dispatchLoop is the manager's one dispatch goroutine. It keeps up to
// window tasks outstanding on the block and refills as completions free
// room: each refill is one Dispatch — one task frame on a worker session —
// carrying every task ready in the interchange at that moment. A killed
// manager stops at once (death takes priority over refilling; the reaper
// deals with what it owned); on shutdown the loop waits for the block to
// finish what it holds.
func (e *HighThroughputExecutor) dispatchLoop(m *manager) {
	defer e.wg.Done()
	// Refill buffers, reused: handles do not keep the batch slice.
	var batch []*queued
	var tasks []*provider.Task
	for {
		for m.outstanding.Load() >= int64(m.window) {
			select {
			case <-m.stop:
				return
			case <-m.wake:
			}
		}
		if m.stopped() {
			return
		}
		batch = batch[:0]
		select {
		case <-m.stop:
			return
		case q, ok := <-e.interchange:
			if !ok {
				for m.outstanding.Load() > 0 {
					select {
					case <-m.stop:
						return
					case <-m.wake:
					}
				}
				return
			}
			batch = append(batch, q)
		}
	fill:
		for int64(len(batch)) < int64(m.window)-m.outstanding.Load() {
			select {
			case q, ok := <-e.interchange:
				if !ok {
					break fill
				}
				batch = append(batch, q)
			default:
				break fill
			}
		}
		tasks = e.dispatch(m, batch, tasks[:0])
		clear(batch)
		clear(tasks)
	}
}

// dispatch hands one refill to the block, building the provider tasks in
// tasks (returned for reuse). Tasks a lost manager's zombie already
// completed are dropped; tasks that cannot reach the block (the manager was
// swept or killed, the block is dead) go back to the interchange untouched —
// they never reached a worker, so nothing is charged.
func (e *HighThroughputExecutor) dispatch(m *manager, batch []*queued, tasks []*provider.Task) []*provider.Task {
	mine := batch[:0]
	for _, q := range batch {
		switch {
		case q.fired.Load():
		case !m.addOwned(q):
			e.putBack(q)
		default:
			mine = append(mine, q)
		}
	}
	if len(mine) == 0 {
		return tasks
	}
	if m.stopped() || !m.handle.Alive() {
		for _, q := range mine {
			if m.disown(q) {
				e.putBack(q)
			}
		}
		if !m.stopped() {
			e.failBlock(m)
		}
		return tasks
	}
	now := time.Now().UnixNano()
	m.lastBeat.Store(now)
	m.lastBusy.Store(now)
	for _, q := range mine {
		m.outstanding.Add(1)
		timer := e.armDeadline(q)
		tasks = append(tasks, &provider.Task{
			ID:     q.task.ID,
			Fn:     q.task.Fn, // every handle runs Fn guarded
			Remote: q.task.Remote,
			Done: func(res any, err error) {
				if timer != nil {
					timer.Stop()
				}
				e.complete(m, q, res, err)
			},
		})
	}
	m.handle.Dispatch(tasks)
	return tasks
}

// complete is every dispatched task's completion. A loss the block reports
// marks it dead; a task that had started there is re-dispatched against its
// budget, one that never started is requeued free. Any other outcome is the
// task's own and fires its callback — also when the reaper already swept the
// task, so a silent block's late result can still win.
func (e *HighThroughputExecutor) complete(m *manager, q *queued, res any, err error) {
	switch {
	case errors.Is(err, provider.ErrNotStarted):
		e.failBlock(m)
		if m.disown(q) {
			e.requeueRetired(q, err)
		}
	case errors.Is(err, provider.ErrWorkerLost):
		e.failBlock(m)
		if m.disown(q) {
			e.redispatch(q, err)
		}
	default:
		if q.fire() {
			m.completed.Add(1)
			e.inFlight.Add(-1)
			q.done(res, err)
		}
		m.disown(q)
	}
	// Idle time runs from the block's last completion.
	if m.outstanding.Add(-1) == 0 {
		m.markBusy()
	}
	m.signal()
}

// armDeadline starts the engine-side walltime watchdog for one dispatch of a
// deadline-carrying task: if the deadline (plus a short grace for the
// worker-side kill to report first) passes before the task completes, the
// task completes with ErrDeadlineExceeded. The deadline is absolute, so time
// queued on the block counts. The zombie execution keeps its slot until the
// block reports it — a deliberate choice: the fallback exists for
// unresponsive workers, whose block the heartbeat machinery will reap
// anyway. Returns nil for tasks without a deadline; the caller stops the
// returned timer on completion.
func (e *HighThroughputExecutor) armDeadline(q *queued) *time.Timer {
	if q.task.Deadline.IsZero() {
		return nil
	}
	return time.AfterFunc(time.Until(q.task.Deadline)+e.cfg.HeartbeatPeriod/2, func() {
		if q.fire() {
			e.inFlight.Add(-1)
			e.deadlined.Add(1)
			metDeadlineExpired.Inc()
			q.done(nil, fmt.Errorf("task %d ran past its walltime deadline %s: %w",
				q.task.ID, q.task.Deadline.Format(time.RFC3339), ErrDeadlineExceeded))
		}
	})
}

// redispatch re-enqueues a task whose block died after starting it,
// surfacing the retry through Task.Retried. Re-dispatches are bounded: a
// task past its MaxRedispatch budget is a poison task — every block it
// touches dies — and is quarantined (failed with ErrPoisonTask) instead of
// being handed a fresh block to kill. The budget therefore only counts
// deaths that happened while the task was executing; a task its block never
// started goes through requeueRetired instead, because routing bad luck is
// not evidence of poison. The send is non-blocking so a full interchange
// cannot wedge a completion: a task that does not fit is parked and
// re-attempted on every monitor sweep (the tasks came out of the
// interchange, so the parked set is bounded by in-flight work). Only a
// shut-down executor fails the task (exactly once).
func (e *HighThroughputExecutor) redispatch(q *queued, reason error) {
	if q.fired.Load() {
		return
	}
	if n := q.redispatches.Add(1); e.cfg.MaxRedispatch >= 0 && n > int64(e.cfg.MaxRedispatch) {
		e.quarantine(q, reason)
		return
	}
	if q.task.Retried != nil {
		q.task.Retried(reason)
	}
	e.requeue(q, reason, &e.redispatched)
}

// requeueRetired re-enqueues a task its block accepted but never started —
// queued behind busy slots when the block died or closed, or handed to a
// manager the reaper had already swept — so the attempt is free: only deaths
// under a running task consume its redispatch budget. Task.Retried still
// fires because the task will be launched again and monitoring must see
// every launch.
func (e *HighThroughputExecutor) requeueRetired(q *queued, reason error) {
	if q.fired.Load() {
		return
	}
	if q.task.Retried != nil {
		q.task.Retried(reason)
	}
	e.requeue(q, reason, &e.requeued)
}

// putBack returns a task that never left the engine to the interchange: no
// launch happened, so neither a counter nor Task.Retried sees it.
func (e *HighThroughputExecutor) putBack(q *queued) {
	e.requeue(q, fmt.Errorf("task %d handed back before dispatch", q.task.ID), nil)
}

// requeue re-enqueues a task, parking it when the interchange is full.
func (e *HighThroughputExecutor) requeue(q *queued, reason error, counter *atomic.Int64) {
	if !e.tryRequeue(q, reason, counter) {
		e.mu.Lock()
		e.parked = append(e.parked, parkedTask{q, counter})
		e.mu.Unlock()
	}
}

// quarantine fails a poison task exactly once with ErrPoisonTask, records it
// for Stats()//healthz, and counts it in pcwl_htex_quarantined_total.
func (e *HighThroughputExecutor) quarantine(q *queued, reason error) {
	if !q.fire() {
		return
	}
	e.inFlight.Add(-1)
	e.quarantined.Add(1)
	metQuarantined.Inc()
	rec := QuarantineRecord{
		TaskID:       q.task.ID,
		Redispatches: int(q.redispatches.Load()) - 1,
		LastError:    reason.Error(),
		Time:         time.Now(),
	}
	e.mu.Lock()
	e.quarRecords = append(e.quarRecords, rec)
	if len(e.quarRecords) > maxQuarantineRecords {
		e.quarRecords = e.quarRecords[len(e.quarRecords)-maxQuarantineRecords:]
	}
	e.mu.Unlock()
	q.done(nil, fmt.Errorf("task %d killed %d blocks and exhausted its %d re-dispatches (last: %v): %w",
		q.task.ID, rec.Redispatches+1, rec.Redispatches, reason, ErrPoisonTask))
}

// tryRequeue attempts a non-blocking re-enqueue, incrementing counter (when
// non-nil) only on success, so monitoring never reports a re-dispatch that
// did not happen. It reports false when the interchange is full; a stopped
// executor fails the task instead (and reports true — there is nothing left
// to park).
func (e *HighThroughputExecutor) tryRequeue(q *queued, reason error, counter *atomic.Int64) bool {
	sent := false
	accepted := e.lc.submit(func() {
		select {
		case e.interchange <- q:
			sent = true
		default:
		}
	})
	if sent {
		if counter != nil {
			counter.Add(1)
		}
		return true
	}
	if !accepted {
		if q.fire() {
			e.inFlight.Add(-1)
			q.done(nil, fmt.Errorf("executor %s %w before task %d could be re-dispatched: %v",
				e.cfg.Label, ErrShutdown, q.task.ID, reason))
		}
		return true
	}
	return false
}

// drainParked re-attempts parked re-enqueues in order, stopping at the
// first that still does not fit. Monitor goroutine only.
func (e *HighThroughputExecutor) drainParked() {
	for {
		e.mu.Lock()
		if len(e.parked) == 0 {
			e.mu.Unlock()
			return
		}
		p := e.parked[0]
		e.parked = e.parked[1:]
		e.mu.Unlock()
		if p.q.fired.Load() {
			continue
		}
		if !e.tryRequeue(p.q, fmt.Errorf("re-dispatch retried from parked queue"), p.counter) {
			e.mu.Lock()
			e.parked = append([]parkedTask{p}, e.parked...)
			e.mu.Unlock()
			return
		}
	}
}

// reapLost declares managers lost when their block is known dead (failed —
// a completion or the heartbeat observed the death) or their heartbeat has
// been silent past HeartbeatThreshold, and releases their block. A dead
// block completes every task it held itself, telling started tasks from
// never-started ones, so its tasks are left to those completions; a silent
// block's tasks are re-dispatched here, against their budgets, since
// nothing says whether they ran. A FailSimulation'd manager is caught
// exactly like a crashed pilot job. Monitor goroutine only.
func (e *HighThroughputExecutor) reapLost() {
	threshold := int64(e.cfg.HeartbeatThreshold)
	now := time.Now().UnixNano()
	e.mu.Lock()
	var lost []*manager
	kept := e.managers[:0]
	for _, m := range e.managers {
		if m.failed.Load() || now-m.lastBeat.Load() > threshold {
			lost = append(lost, m)
		} else {
			kept = append(kept, m)
		}
	}
	e.managers = kept
	retiring := e.retiring[:0]
	for _, m := range e.retiring {
		if m.outstanding.Load() > 0 {
			retiring = append(retiring, m)
		}
	}
	e.retiring = retiring
	e.mu.Unlock()
	for _, m := range lost {
		e.lost.Add(1)
		if !m.failed.Load() {
			e.retire(m, fmt.Errorf("manager %d lost: no heartbeat in %s", m.id, e.cfg.HeartbeatThreshold), e.redispatch)
			continue
		}
		m.kill()
		m.releaseBlock()
		if m.outstanding.Load() > 0 {
			e.mu.Lock()
			e.retiring = append(e.retiring, m)
			e.mu.Unlock()
		}
	}
}

// ensureMinBlocks restores the MinBlocks floor after manager losses, so a
// fault cannot permanently shrink the pool below the configured minimum.
// Monitor goroutine only.
func (e *HighThroughputExecutor) ensureMinBlocks() {
	e.scaleWhile(func(blocks int) bool { return blocks < e.cfg.MinBlocks })
}

// scaleInIdle releases blocks whose manager has been idle past IdleTimeout,
// never dropping below MinBlocks. Monitor goroutine only.
func (e *HighThroughputExecutor) scaleInIdle() {
	if e.cfg.IdleTimeout <= 0 {
		return
	}
	cutoff := time.Now().Add(-e.cfg.IdleTimeout).UnixNano()
	e.mu.Lock()
	var idle []*manager
	kept := e.managers[:0]
	for _, m := range e.managers {
		if len(e.managers)-len(idle) > e.cfg.MinBlocks &&
			m.outstanding.Load() == 0 && m.lastBusy.Load() < cutoff {
			idle = append(idle, m)
		} else {
			kept = append(kept, m)
		}
	}
	e.managers = kept
	e.mu.Unlock()
	for _, m := range idle {
		e.scaledIn.Add(1)
		e.retire(m, fmt.Errorf("manager %d scaled in", m.id), e.requeueRetired)
	}
}

// retire stops a manager (already removed from e.managers), hands every task
// it still owned to requeue — a silent block's whole window, or the
// race-window task a dispatcher handed an idle block between the idle check
// and the kill — and releases its block.
func (e *HighThroughputExecutor) retire(m *manager, reason error, requeue func(*queued, error)) {
	m.kill()
	for _, q := range m.takeOwned() {
		requeue(q, reason)
	}
	m.releaseBlock()
}

// FailSimulation deterministically kills one pilot block for fault-injection
// tests: the manager stops heartbeating and dispatching, exactly as if its
// node died, and the monitor declares it lost once its heartbeat goes silent
// past HeartbeatThreshold, re-dispatching its tasks. It reports whether a
// live manager with that ID existed.
func (e *HighThroughputExecutor) FailSimulation(managerID int) bool {
	e.mu.Lock()
	var victim *manager
	for _, m := range e.managers {
		if m.id == managerID {
			victim = m
			break
		}
	}
	e.mu.Unlock()
	if victim == nil {
		return false
	}
	victim.silent.Store(true)
	victim.kill()
	return true
}

// Outstanding implements Executor.
func (e *HighThroughputExecutor) Outstanding() int { return int(e.inFlight.Load()) }

// ConnectedManagers reports live blocks (pilot jobs with registered
// managers).
func (e *HighThroughputExecutor) ConnectedManagers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.managers)
}

// Redispatched reports tasks re-dispatched against their budget after a
// block died under them or went silent.
func (e *HighThroughputExecutor) Redispatched() int64 { return e.redispatched.Load() }

// Stats implements StatsReporter: executor counters plus the provider's
// per-block view, merged with live managers' queue depths.
func (e *HighThroughputExecutor) Stats() ExecutorStats {
	e.mu.Lock()
	managers := len(e.managers)
	launched := e.launched
	parked := len(e.parked)
	quarantined := append([]QuarantineRecord(nil), e.quarRecords...)
	depths := make(map[int]int, len(e.managers))
	for _, m := range e.managers {
		depths[m.id] = m.ownedCount()
	}
	e.mu.Unlock()

	status := e.cfg.Provider.Status()
	ids := make([]int, 0, len(status))
	for id := range status {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	blocks := make([]BlockHealth, 0, len(ids))
	for _, id := range ids {
		st := status[id]
		bh := BlockHealth{ID: id, State: string(st.State), Detail: st.Detail}
		if q, live := depths[id]; live {
			bh.Queued = q
		}
		blocks = append(blocks, bh)
	}

	return ExecutorStats{
		Label:             e.cfg.Label,
		Outstanding:       e.Outstanding(),
		Workers:           managers * e.cfg.WorkersPerNode,
		ConnectedManagers: managers,
		BlocksLaunched:    launched,
		ManagersLost:      e.lost.Load(),
		BlocksScaledIn:    e.scaledIn.Load(),
		TasksRedispatched: e.redispatched.Load(),
		TasksRequeued:     e.requeued.Load(),
		TasksQuarantined:  e.quarantined.Load(),
		TasksParked:       parked,
		Quarantined:       quarantined,
		Provider:          e.cfg.Provider.Name(),
		Blocks:            blocks,
	}
}

// Quarantined reports how many tasks this executor has quarantined as poison.
func (e *HighThroughputExecutor) Quarantined() int64 { return e.quarantined.Load() }

// ManagerQueueDepths reports each live manager's unfinished (queued plus
// running) task count, keyed by manager ID.
func (e *HighThroughputExecutor) ManagerQueueDepths() map[int]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]int, len(e.managers))
	for _, m := range e.managers {
		out[m.id] = m.ownedCount()
	}
	return out
}

// CompletedByManager returns per-manager completed-task counts, useful for
// verifying load distribution across pilot blocks.
func (e *HighThroughputExecutor) CompletedByManager() []int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int64, len(e.managers))
	for i, m := range e.managers {
		out[i] = m.completed.Load()
	}
	return out
}

// Shutdown drains the interchange, waits for live blocks to finish what they
// hold, stops managers and releases blocks. In-flight done callbacks fire
// exactly once; tasks stranded on a killed or dead manager fail with
// ErrShutdown rather than hanging.
func (e *HighThroughputExecutor) Shutdown() error {
	if !e.lc.stop() {
		return nil
	}
	// The gate guarantees no submitter (or re-dispatcher) is mid-send.
	close(e.interchange)
	e.wg.Wait() // monitor, dispatchers, heartbeats

	e.mu.Lock()
	managers := append(e.managers, e.retiring...)
	e.managers, e.retiring = nil, nil
	parked := e.parked
	e.parked = nil
	err := e.scaleErr
	e.mu.Unlock()
	for _, p := range parked {
		if p.q.fire() {
			e.inFlight.Add(-1)
			p.q.done(nil, fmt.Errorf("executor %s %w with task %d parked for re-dispatch",
				e.cfg.Label, ErrShutdown, p.q.task.ID))
		}
	}
	for _, m := range managers {
		// Orphan sweep: a manager killed between FailSimulation/reap ticks,
		// or a dead block still completing its tasks, may own tasks whose
		// callbacks must fire.
		for _, q := range m.takeOwned() {
			if q.fire() {
				e.inFlight.Add(-1)
				q.done(nil, fmt.Errorf("executor %s %w with task %d stranded on dead manager %d",
					e.cfg.Label, ErrShutdown, q.task.ID, m.id))
			}
		}
		m.releaseBlock()
	}
	// With zero live dispatchers (every block scaled in or killed), tasks can
	// still sit buffered in the now-closed interchange; their callbacks must
	// fire too.
	for q := range e.interchange {
		if q.fire() {
			e.inFlight.Add(-1)
			q.done(nil, fmt.Errorf("executor %s %w with task %d still queued in the interchange",
				e.cfg.Label, ErrShutdown, q.task.ID))
		}
	}
	// Tear down anything the provider still tracks (queued sim jobs, worker
	// processes a failed launch left behind).
	if cerr := e.cfg.Provider.Cancel(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
