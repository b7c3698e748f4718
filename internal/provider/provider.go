// Package provider implements Parsl's execution-provider abstraction for the
// reproduced engine: the layer that decouples *where* pilot blocks run from
// the HighThroughputExecutor that schedules tasks onto them (Babuji et al.,
// "Parsl: Pervasive Parallel Programming in Python", §4).
//
// A provider launches blocks; each block is one manager — an execution
// endpoint the executor feeds tasks. Three implementations cover the paper's
// deployment range:
//
//   - LocalProvider: in-process goroutine managers (the single-machine and
//     in-allocation deployments). A task runs as a plain function call.
//   - ProcessProvider: each block is a real OS subprocess running the
//     parsl-cwl-worker binary, speaking a length-prefixed binary protocol over
//     stdin/stdout pipes. A worker segfault, OOM kill, or SIGKILL surfaces as
//     ErrWorkerLost instead of taking the engine down.
//   - SimProvider: blocks are pilot jobs submitted to the simulated Slurm
//     scheduler over the simulated cluster (internal/slurmsim,
//     internal/cluster), so queue delays, walltime kills, and node preemption
//     become testable scenarios.
//
// A fourth implementation — the network fabric's NetProvider, where remote
// workers dial the engine's interchange listener over TCP/TLS — lives in
// internal/fabric and builds on this package's transport-agnostic worker
// session layer (FrameConn, AcceptWorkerSession, ManagerSession).
package provider

import (
	"errors"
	"fmt"
	"sync"
)

// ErrWorkerLost marks an execution-infrastructure failure: the block died
// after starting the task — worker process exited, sim node preempted,
// walltime expired. The task itself did not necessarily fail; the executor
// should re-dispatch it to another block, charging its redispatch budget.
var ErrWorkerLost = errors.New("worker lost")

// ErrNotStarted marks a task a block accepted but never started before it
// died or closed: it sat in the block's queue behind busy slots. The death
// says nothing about the task, so the executor requeues it without charging
// its redispatch budget.
var ErrNotStarted = errors.New("task never started on the lost block")

// Task is the provider-facing unit of work.
type Task struct {
	// ID identifies the task across re-dispatches (the DFK task id).
	ID int
	// Fn executes the task in-process. It is always set and is the fallback
	// for managers that cannot ship work out of process.
	Fn func() (any, error)
	// Remote, when non-nil, describes the task in a serializable form that
	// process-isolated workers can execute out of process. Managers that do
	// not cross a process boundary ignore it and call Fn.
	Remote *RemoteSpec
	// Done receives the task's outcome exactly once. Handles call it from
	// their own goroutines (a session's read loop, a slot goroutine), so it
	// must not block and must not call back into the handle.
	Done func(res any, err error)
}

// ManagerHandle is one launched block: an execution endpoint with a fixed
// number of slots, owned by the executor-side manager bookkeeping.
type ManagerHandle interface {
	// Block returns the executor-assigned block id this handle serves.
	Block() int
	// Slots is how many tasks the block runs at once. Tasks dispatched
	// beyond that wait in the block's queue and start in dispatch order as
	// slots free up.
	Slots() int
	// Dispatch hands tasks to the block without waiting for any of them.
	// Each task's Done fires exactly once: with its result or its own error,
	// with an error wrapping ErrWorkerLost if the block died after starting
	// it, or with one wrapping ErrNotStarted if the block died, closed, or
	// was already gone before starting it. Dispatch may call Done before it
	// returns (a dead block, an unsendable task), and must not keep the
	// batch slice after it returns — callers reuse it.
	Dispatch(batch []*Task)
	// Alive reports whether the block is still healthy. The executor's
	// heartbeat stops beating for a dead handle, which triggers loss
	// detection and re-dispatch. Once Alive reports false the handle has
	// completed, or is completing, every task it held.
	Alive() bool
	// Close terminates the block and releases its resources. Tasks still
	// queued complete with ErrNotStarted. Idempotent.
	Close() error
}

// BlockState is the lifecycle state of one provider block.
type BlockState string

const (
	// BlockQueued means the block is waiting for resources (e.g. in the
	// simulated scheduler's queue).
	BlockQueued BlockState = "queued"
	// BlockRunning means the block is live and accepting tasks.
	BlockRunning BlockState = "running"
	// BlockDead means the block died (process exit, walltime, preemption)
	// before being closed.
	BlockDead BlockState = "dead"
	// BlockClosed means the block was shut down by the executor.
	BlockClosed BlockState = "closed"
)

// BlockStatus describes one block for monitoring surfaces (/healthz).
type BlockStatus struct {
	State BlockState `json:"state"`
	// Detail is provider-specific: a worker pid, a sim node allocation, a
	// death reason.
	Detail string `json:"detail,omitempty"`
}

// ExecutionProvider launches and tracks pilot blocks, mirroring
// parsl.providers.base.ExecutionProvider's submit/status/cancel contract.
type ExecutionProvider interface {
	// Name identifies the provider ("local", "process", "sim", "net").
	Name() string
	// Launch starts one block with the executor-assigned id and slots
	// concurrent task slots, and returns its handle. It blocks until the
	// block is usable — for a batch provider this includes queue time.
	// Providers whose workers announce their own capacity (net) grant that
	// instead; the handle's Slots is authoritative.
	Launch(block, slots int) (ManagerHandle, error)
	// Status reports every block this provider has launched, keyed by block
	// id. Closed and dead blocks remain visible until Cancel.
	Status() map[int]BlockStatus
	// Cancel tears down every block the provider launched. The provider is
	// unusable afterwards.
	Cancel() error
}

// RemoteCapable is an optional ExecutionProvider extension: providers whose
// handles ship RemoteSpecs across a process boundary report true, telling
// the submission path it is worth serializing invocations at all. Providers
// that run every task in-process (local, sim) simply do not implement it.
type RemoteCapable interface {
	RemoteCapable() bool
}

// guard runs fn converting panics to errors, so a bad task cannot kill the
// hosting worker goroutine.
func guard(fn func() (any, error)) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panicked: %v", r)
		}
	}()
	return fn()
}

// slotPool is the slot pool behind the local and sim handles and the
// worker: at most slots tasks execute at once, queued tasks start in FIFO
// order as slots free (tasks queue only while every slot is busy). start
// begins one task's execution, under the pool's lock, so it must only hand
// the task to a goroutine; that execution gives its slot back with next or
// release. claim, when set, is called under the lock each time a task takes
// a slot, in that order.
type slotPool struct {
	slots int
	start func(t *Task)
	claim func(t *Task)

	mu      sync.Mutex
	running int
	queue   []*Task // queue[head:] waits for a slot
	head    int
	closed  bool
}

// dispatch starts what fits and queues the rest, returning the tasks refused
// because the pool is closed.
func (p *slotPool) dispatch(batch []*Task) (refused []*Task) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return batch
	}
	for _, t := range batch {
		if p.running < p.slots {
			p.running++
			p.claimed(t)
			p.start(t)
		} else {
			p.queue = append(p.queue, t)
		}
	}
	return nil
}

// next hands a finishing task's slot straight to the next queued task,
// returning it for the caller to run, or frees the slot and returns nil.
func (p *slotPool) next() *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.head == len(p.queue) {
		p.running--
		return nil
	}
	t := p.popLocked()
	p.claimed(t)
	return t
}

// release frees one slot and starts the next queued task, if any.
func (p *slotPool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.head == len(p.queue) {
		p.running--
		return
	}
	t := p.popLocked()
	p.claimed(t)
	p.start(t)
}

func (p *slotPool) claimed(t *Task) {
	if p.claim != nil {
		p.claim(t)
	}
}

func (p *slotPool) popLocked() *Task {
	t := p.queue[p.head]
	p.queue[p.head] = nil
	if p.head++; p.head == len(p.queue) {
		p.queue, p.head = p.queue[:0], 0
	}
	return t
}

// close refuses further dispatches and returns the queued tasks, which never
// started.
func (p *slotPool) close() []*Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	queued := p.queue[p.head:]
	p.queue, p.head = nil, 0
	return queued
}

// failAll completes every task with err.
func failAll(tasks []*Task, err error) {
	for _, t := range tasks {
		t.Done(nil, err)
	}
}
