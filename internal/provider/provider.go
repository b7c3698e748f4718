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
)

// ErrWorkerLost marks an execution-infrastructure failure: the block that was
// running (or about to run) the task died — worker process exited, sim node
// preempted, walltime expired. The task itself did not necessarily fail; the
// executor should re-dispatch it to another block.
var ErrWorkerLost = errors.New("worker lost")

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
}

// ManagerHandle is one launched block: an execution endpoint owned by the
// executor-side manager bookkeeping.
type ManagerHandle interface {
	// Block returns the executor-assigned block id this handle serves.
	Block() int
	// Run executes one task to completion and returns its result. It is safe
	// for concurrent use (up to the executor's workers-per-node). An error
	// wrapping ErrWorkerLost reports that the block died — the caller should
	// re-dispatch the task; any other error is the task's own failure.
	Run(t *Task) (any, error)
	// Alive reports whether the block is still healthy. The executor's
	// heartbeat stops beating for a dead handle, which triggers loss
	// detection and re-dispatch.
	Alive() bool
	// Close terminates the block and releases its resources. Idempotent.
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
	// Launch starts one block with the executor-assigned id and returns its
	// handle. It blocks until the block is usable — for a batch provider this
	// includes queue time.
	Launch(block int) (ManagerHandle, error)
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

// isWorkerLostErr reports whether err marks an execution-infrastructure
// failure (ErrWorkerLost anywhere in its chain).
func isWorkerLostErr(err error) bool { return errors.Is(err, ErrWorkerLost) }

// Guard runs fn converting panics to errors, so a bad task cannot kill the
// hosting worker goroutine. Exported for out-of-package providers (the
// network fabric) that need the same in-process fallback behavior.
func Guard(fn func() (any, error)) (res any, err error) {
	return guard(fn)
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
