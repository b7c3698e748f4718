package parsl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provider"
)

// Task is one unit of work handed to an executor.
type Task struct {
	ID    int
	Fn    func() (any, error)
	Cores int // informational; used by resource-aware executors
	// Deadline, when non-zero, is the task's walltime bound. Deadline-aware
	// executors (HTEX) fail the task with ErrDeadlineExceeded once it passes —
	// the engine-side fallback behind the worker-side process kill, and the
	// only enforcement for tasks running in-process.
	Deadline time.Time
	// Remote, when non-nil, is the task in serializable form: executors whose
	// blocks are process-isolated workers (HTEX over a ProcessProvider) ship
	// it across the pipe protocol instead of calling Fn. Executors that stay
	// in-process ignore it.
	Remote *provider.RemoteSpec
	// Retried, when set, is invoked by fault-tolerant executors each time
	// the task is re-dispatched after a manager loss, before it re-enters
	// the queue. The DFK uses it to surface executor-level retries in the
	// monitoring stream. It may be called concurrently with Fn (the lost
	// manager's execution may still be running) and must be non-blocking.
	Retried func(reason error)
}

// Executor runs tasks, mirroring parsl.executors.base.ParslExecutor.
type Executor interface {
	// Label identifies the executor in configs and monitoring.
	Label() string
	// Start brings up the executor's resources.
	Start() error
	// Submit enqueues a task; done is called exactly once with the outcome.
	// Submitting to a shut-down executor is safe: done receives an error
	// wrapping ErrShutdown (never a panic).
	Submit(t *Task, done func(any, error))
	// Outstanding reports queued plus running task count.
	Outstanding() int
	// Shutdown stops the executor after draining running tasks. In-flight
	// done callbacks still fire exactly once.
	Shutdown() error
}

// ExecutorStats is a point-in-time executor health summary, served by the
// submission service's /healthz endpoint.
type ExecutorStats struct {
	Label       string `json:"label"`
	Outstanding int    `json:"outstanding"`
	// Workers is the live worker count (pool size, or managers × per-node).
	Workers int `json:"workers"`
	// The remaining fields are HTEX-only and zero for other executors.
	ConnectedManagers int   `json:"connectedManagers,omitempty"`
	BlocksLaunched    int   `json:"blocksLaunched,omitempty"`
	ManagersLost      int64 `json:"managersLost,omitempty"`
	BlocksScaledIn    int64 `json:"blocksScaledIn,omitempty"`
	// TasksRedispatched counts re-dispatches charged to a task's budget: its
	// block died after starting it, or went silent holding it.
	TasksRedispatched int64 `json:"tasksRedispatched,omitempty"`
	// TasksRequeued counts free re-dispatches: tasks a dead, closed or
	// scaled-in block had accepted but never started.
	TasksRequeued int64 `json:"tasksRequeued,omitempty"`
	// TasksQuarantined counts tasks that exhausted their redispatch budget
	// and failed with ErrPoisonTask instead of being handed another block.
	TasksQuarantined int64 `json:"tasksQuarantined,omitempty"`
	// TasksParked is the current size of the redispatch overflow set: tasks
	// awaiting interchange space after a manager loss. A persistently
	// non-zero value means the interchange is wedged.
	TasksParked int `json:"tasksParked,omitempty"`
	// Quarantined holds the most recent poison-task records (bounded).
	Quarantined []QuarantineRecord `json:"quarantined,omitempty"`
	// Provider names the execution provider backing the executor's blocks
	// ("local", "process", "sim").
	Provider string `json:"provider,omitempty"`
	// Blocks is the provider's per-block view (queued/running/dead/closed,
	// provider detail such as a worker pid or sim allocation) merged with
	// each live manager's unfinished-task depth.
	Blocks []BlockHealth `json:"blocks,omitempty"`
}

// QuarantineRecord describes one poison task: a task that killed (or was
// stranded on) more blocks than its redispatch budget allows and was failed
// with ErrPoisonTask instead of being re-dispatched again.
type QuarantineRecord struct {
	TaskID       int       `json:"taskId"`
	Redispatches int       `json:"redispatches"`
	LastError    string    `json:"lastError"`
	Time         time.Time `json:"time"`
}

// BlockHealth is one pilot block's state in an ExecutorStats report.
type BlockHealth struct {
	ID     int    `json:"id"`
	State  string `json:"state"`
	Detail string `json:"detail,omitempty"`
	// Queued is the block's unfinished (buffered plus running) task count;
	// only meaningful while the block is live.
	Queued int `json:"queued,omitempty"`
}

// StatsReporter is implemented by executors that expose health stats.
type StatsReporter interface {
	Stats() ExecutorStats
}

// RemoteSpecTarget is implemented by executors that can ship serialized
// tasks out of process. The DFK only pays for building a RemoteSpec when
// the target executor reports true — local and thread-pool execution must
// not re-serialize every invocation on the hot path.
type RemoteSpecTarget interface {
	AcceptsRemoteSpecs() bool
}

// queued pairs a task with its completion callback. The fired flag makes the
// callback (and the executor's in-flight accounting) exactly-once even when a
// lost manager's zombie execution races the re-dispatched copy.
type queued struct {
	task *Task
	done func(any, error)

	fired atomic.Bool
	// redispatches counts worker-loss re-dispatches of this task, checked
	// against the executor's MaxRedispatch budget before each re-enqueue.
	redispatches atomic.Int64
}

// fire claims the right to complete the task; only the first caller wins.
func (q *queued) fire() bool { return q.fired.CompareAndSwap(false, true) }

// ThreadPoolExecutor runs tasks on a fixed pool of goroutines — the moral
// equivalent of parsl.executors.threads.ThreadPoolExecutor, which the paper
// uses for the single-node deployment (Fig. 1b).
type ThreadPoolExecutor struct {
	label    string
	workers  int
	queue    chan *queued
	wg       sync.WaitGroup
	lc       *lifecycle
	inFlight atomic.Int64
}

// NewThreadPoolExecutor creates a pool with the given parallelism.
func NewThreadPoolExecutor(label string, workers int) *ThreadPoolExecutor {
	if workers <= 0 {
		workers = 1
	}
	if label == "" {
		label = "threads"
	}
	return &ThreadPoolExecutor{
		label:   label,
		workers: workers,
		queue:   make(chan *queued, 1024),
		lc:      newLifecycle(),
	}
}

// Label implements Executor.
func (e *ThreadPoolExecutor) Label() string { return e.label }

// Workers returns the pool size.
func (e *ThreadPoolExecutor) Workers() int { return e.workers }

// Start launches the worker goroutines.
func (e *ThreadPoolExecutor) Start() error {
	if !e.lc.start() {
		return nil
	}
	for i := 0; i < e.workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for q := range e.queue {
				res, err := runGuarded(q.task)
				if q.fire() {
					e.inFlight.Add(-1)
					q.done(res, err)
				}
			}
		}()
	}
	return nil
}

// runGuarded executes a task converting panics to errors so a bad app cannot
// kill a worker.
func runGuarded(t *Task) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task %d panicked: %v", t.ID, r)
		}
	}()
	return t.Fn()
}

// Submit implements Executor. The enqueue happens under the lifecycle's read
// gate, so it can never race Shutdown's close of the queue.
func (e *ThreadPoolExecutor) Submit(t *Task, done func(any, error)) {
	q := &queued{task: t, done: done}
	e.inFlight.Add(1)
	if !e.lc.submit(func() { e.queue <- q }) {
		e.inFlight.Add(-1)
		if q.fire() {
			done(nil, fmt.Errorf("executor %s is %w", e.label, ErrShutdown))
		}
	}
}

// Outstanding implements Executor.
func (e *ThreadPoolExecutor) Outstanding() int { return int(e.inFlight.Load()) }

// Stats implements StatsReporter.
func (e *ThreadPoolExecutor) Stats() ExecutorStats {
	return ExecutorStats{
		Label:       e.label,
		Outstanding: e.Outstanding(),
		Workers:     e.workers,
	}
}

// Shutdown drains the queue and stops the workers. Safe to call concurrently
// with Submit: the lifecycle gate guarantees no submitter is mid-send when
// the queue closes.
func (e *ThreadPoolExecutor) Shutdown() error {
	if !e.lc.stop() {
		return nil
	}
	close(e.queue)
	e.wg.Wait()
	return nil
}
