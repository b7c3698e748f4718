package provider

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/slurmsim"
)

// SimOptions configures a SimProvider.
type SimOptions struct {
	// Nodes/CoresPerNode size the simulated cluster (defaults 3 × 48, the
	// paper's testbed).
	Nodes        int
	CoresPerNode int
	// Scheduler configures the simulated Slurm batch system (zero value
	// selects slurmsim.DefaultOptions).
	Scheduler slurmsim.Options
	// TimeScale maps virtual seconds to real time (default 1ms of wall clock
	// per virtual second, so the default ~2.8s queue path costs ~3ms).
	TimeScale time.Duration
	// Walltime kills a block after this much virtual time allocated, like a
	// batch job exceeding its time limit (0 = unlimited).
	Walltime float64
	// LaunchTimeout bounds how long Launch waits (in real time) for the
	// simulated scheduler to grant the block (default 30s).
	LaunchTimeout time.Duration
}

// SimProvider adapts the simulated cluster and Slurm scheduler
// (internal/cluster, internal/slurmsim) as an execution provider: each block
// is a whole-node pilot job submitted to the simulated batch queue. Queue
// delays, walltime kills, and node preemption become testable scenarios while
// tasks still execute for real in the engine process.
type SimProvider struct {
	opts  SimOptions
	eng   *sim.Engine
	sched *slurmsim.Scheduler

	cmds  chan func()
	stop  chan struct{}
	once  sync.Once
	start sync.Once

	mu     sync.Mutex
	blocks map[int]*simHandle
}

// NewSimProvider builds a SimProvider.
func NewSimProvider(opts SimOptions) *SimProvider {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.CoresPerNode <= 0 {
		opts.CoresPerNode = 48
	}
	if opts.Scheduler == (slurmsim.Options{}) {
		opts.Scheduler = slurmsim.DefaultOptions()
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = time.Millisecond
	}
	if opts.LaunchTimeout <= 0 {
		opts.LaunchTimeout = 30 * time.Second
	}
	eng := sim.NewEngine()
	cl := cluster.New(eng, opts.Nodes, opts.CoresPerNode)
	return &SimProvider{
		opts:   opts,
		eng:    eng,
		sched:  slurmsim.New(eng, cl, opts.Scheduler),
		cmds:   make(chan func()),
		stop:   make(chan struct{}),
		blocks: map[int]*simHandle{},
	}
}

// Name implements ExecutionProvider.
func (p *SimProvider) Name() string { return "sim" }

// drive runs the simulation engine on a dedicated goroutine, advancing the
// virtual clock in step with real time (TimeScale wall clock per virtual
// second). All engine and scheduler access funnels through p.cmds, keeping
// the single-goroutine simulator race-free under a concurrent executor.
func (p *SimProvider) drive() {
	started := time.Now()
	tick := p.opts.TimeScale / 4
	if tick < 200*time.Microsecond {
		tick = 200 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case fn := <-p.cmds:
			fn()
		case <-ticker.C:
			target := float64(time.Since(started)) / float64(p.opts.TimeScale)
			p.eng.RunUntil(target)
		}
	}
}

// do runs fn on the simulation goroutine and waits for it.
func (p *SimProvider) do(fn func()) {
	p.start.Do(func() { go p.drive() })
	done := make(chan struct{})
	select {
	case p.cmds <- func() { fn(); close(done) }:
		<-done
	case <-p.stop:
	}
}

// Launch implements ExecutionProvider: submit a one-node pilot job and block
// until the simulated scheduler grants it (real time = queue wait × TimeScale).
func (p *SimProvider) Launch(block, slots int) (ManagerHandle, error) {
	h := &simHandle{provider: p, block: block, dead: make(chan struct{})}
	h.pool = slotPool{slots: max(slots, 1), start: h.run}
	granted := make(chan struct{})
	p.do(func() {
		job := &slurmsim.Job{
			Name:  fmt.Sprintf("block-%d", block),
			Nodes: 1,
			Run: func(alloc []string, done func()) {
				h.alloc = strings.Join(alloc, ",")
				h.done = done
				h.state.Store(int32(stateRunning))
				if p.opts.Walltime > 0 {
					p.eng.Schedule(p.opts.Walltime, func() { h.die("walltime exceeded") })
				}
				close(granted)
			},
		}
		h.jobID = p.sched.Submit(job)
		p.mu.Lock()
		p.blocks[block] = h
		p.mu.Unlock()
	})
	select {
	case <-granted:
		metBlocksLaunched.With("sim").Inc()
		return h, nil
	case <-p.stop:
		return nil, fmt.Errorf("sim provider canceled while block %d was queued", block)
	case <-time.After(p.opts.LaunchTimeout):
		// The grant may race the timeout (it can land between the timer
		// firing and this cleanup). closeSim handles both sides on the sim
		// goroutine: still queued → scancel; already granted → release the
		// allocation, so an abandoned launch can never pin a simulated node.
		p.do(func() { h.closeSim() })
		return nil, fmt.Errorf("sim block %d not granted within %s (queue length %d)",
			block, p.opts.LaunchTimeout, p.QueueLength())
	}
}

// QueueLength reports pending pilot jobs in the simulated batch queue.
func (p *SimProvider) QueueLength() int {
	n := 0
	p.do(func() { n = p.sched.QueueLength() })
	return n
}

// Preempt kills a running block as if its node were preempted: tasks in
// flight on it fail with ErrWorkerLost and the executor re-dispatches them.
// It reports whether a live block with that id existed.
func (p *SimProvider) Preempt(block int) bool {
	hit := false
	p.do(func() {
		p.mu.Lock()
		h := p.blocks[block]
		p.mu.Unlock()
		if h != nil && h.state.Load() == int32(stateRunning) {
			h.die("node preempted")
			hit = true
		}
	})
	return hit
}

// Status implements ExecutionProvider.
func (p *SimProvider) Status() map[int]BlockStatus {
	out := map[int]BlockStatus{}
	p.do(func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		for id, h := range p.blocks {
			out[id] = h.status()
		}
	})
	return out
}

// Cancel implements ExecutionProvider.
func (p *SimProvider) Cancel() error {
	p.do(func() {
		p.mu.Lock()
		blocks := make([]*simHandle, 0, len(p.blocks))
		for _, h := range p.blocks {
			blocks = append(blocks, h)
		}
		p.mu.Unlock()
		for _, h := range blocks {
			h.closeSim()
		}
	})
	p.once.Do(func() { close(p.stop) })
	return nil
}

// Utilization reports mean simulated core utilization (diagnostics).
func (p *SimProvider) Utilization() float64 {
	var u float64
	p.do(func() { u = p.sched.Cluster().Utilization() })
	return u
}

// BlockIDs returns the ids of blocks the provider has seen, sorted.
func (p *SimProvider) BlockIDs() []int {
	var ids []int
	p.do(func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		for id := range p.blocks {
			ids = append(ids, id)
		}
	})
	sort.Ints(ids)
	return ids
}

const (
	stateQueued int32 = iota
	stateRunning
	stateDead
	stateClosed
)

// simHandle is one granted (or queued) pilot block. Tasks run for real in the
// engine process, at most the block's slots at a time, racing the simulated
// walltime/preemption kill.
type simHandle struct {
	provider *SimProvider
	block    int
	jobID    int
	alloc    string
	done     func() // releases the simulated allocation; sim goroutine only
	reason   string
	state    atomic.Int32
	pool     slotPool
	dead     chan struct{}
	deadOnce sync.Once
}

// markDead closes the dead channel once and fails the queued tasks as never
// started; running ones observe the channel themselves. Sim goroutine only,
// so the completions run elsewhere.
func (h *simHandle) markDead() {
	h.deadOnce.Do(func() {
		close(h.dead)
		if queued := h.pool.close(); len(queued) > 0 {
			err := fmt.Errorf("sim block %d is gone (%s): %w", h.block, h.deathReason(), ErrNotStarted)
			go failAll(queued, err)
		}
	})
}

// Block implements ManagerHandle.
func (h *simHandle) Block() int { return h.block }

// die marks the block dead and releases its simulated allocation. Runs on the
// simulation goroutine.
func (h *simHandle) die(reason string) {
	if h.state.Load() != int32(stateRunning) {
		return
	}
	switch reason {
	case "walltime exceeded":
		metSimWalltimeKills.Inc()
	case "node preempted":
		metSimPreemptions.Inc()
	}
	metWorkerLost.With("sim").Inc()
	h.reason = reason
	h.state.Store(int32(stateDead))
	h.markDead()
	if h.done != nil {
		h.done()
	}
}

// closeSim shuts the block down from the simulation goroutine.
func (h *simHandle) closeSim() {
	switch h.state.Load() {
	case int32(stateQueued):
		h.provider.sched.Cancel(h.jobID)
	case int32(stateRunning):
		if h.done != nil {
			h.done()
		}
	}
	h.state.Store(int32(stateClosed))
	h.markDead()
}

// Slots implements ManagerHandle.
func (h *simHandle) Slots() int { return h.pool.slots }

// Dispatch implements ManagerHandle: queue the tasks on the block's slot
// pool. A dead block refuses them as never started.
func (h *simHandle) Dispatch(batch []*Task) {
	if refused := h.pool.dispatch(batch); len(refused) > 0 {
		<-h.dead // the pool closes only after the dead channel
		failAll(refused, fmt.Errorf("sim block %d is gone (%s): %w", h.block, h.deathReason(), ErrNotStarted))
	}
}

// run executes one task for real, racing the block's simulated death
// (walltime kill or preemption).
func (h *simHandle) run(t *Task) {
	type outcome struct {
		res any
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := guard(t.Fn)
		ch <- outcome{res, err}
	}()
	go func() {
		select {
		case o := <-ch:
			h.pool.release()
			t.Done(o.res, o.err)
		case <-h.dead:
			t.Done(nil, fmt.Errorf("sim block %d died mid-task (%s): %w", h.block, h.deathReason(), ErrWorkerLost))
		}
	}()
}

func (h *simHandle) deathReason() string {
	if h.reason != "" {
		return h.reason
	}
	return "closed"
}

// Alive implements ManagerHandle.
func (h *simHandle) Alive() bool { return h.state.Load() == int32(stateRunning) }

// Close implements ManagerHandle.
func (h *simHandle) Close() error {
	h.provider.do(func() { h.closeSim() })
	return nil
}

func (h *simHandle) status() BlockStatus {
	switch h.state.Load() {
	case int32(stateQueued):
		return BlockStatus{State: BlockQueued, Detail: fmt.Sprintf("job %d pending", h.jobID)}
	case int32(stateRunning):
		return BlockStatus{State: BlockRunning, Detail: h.alloc}
	case int32(stateDead):
		return BlockStatus{State: BlockDead, Detail: h.reason}
	default:
		return BlockStatus{State: BlockClosed, Detail: h.alloc}
	}
}
