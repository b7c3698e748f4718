package provider

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ProcessOptions configures a ProcessProvider.
type ProcessOptions struct {
	// Command is the worker command line; Command[0] is the binary. Empty
	// selects DefaultWorkerCommand.
	Command []string
	// Env is extra environment (KEY=VALUE) appended to the engine's.
	Env []string
	// Dir is the workers' working directory ("" = inherit).
	Dir string
	// HelloTimeout bounds how long Launch waits for the worker's hello frame
	// (default 10s).
	HelloTimeout time.Duration
	// Stderr receives the workers' stderr ("" inherits the engine's stderr;
	// useful diagnostics either way since the protocol owns stdout).
	Stderr io.Writer
	// WarmPool, when positive, keeps this many spare workers pre-forked and
	// handshaken; Launch adopts a spare instead of paying exec+hello
	// latency, and the pool refills asynchronously. Spares are forked with
	// the slot count of the latest Launch (before any, the worker default of
	// one slot per CPU); a spare whose capacity no longer matches is retired.
	WarmPool int
}

// DefaultWorkerCommand locates the parsl-cwl-worker binary: next to the
// current executable first, then on PATH.
func DefaultWorkerCommand() ([]string, error) {
	const name = "parsl-cwl-worker"
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), name)
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return []string{cand}, nil
		}
	}
	if p, err := exec.LookPath(name); err == nil {
		return []string{p}, nil
	}
	return nil, fmt.Errorf("cannot locate %s (next to the executable or on PATH); set worker-cmd", name)
}

// ProcessProvider launches each block as a real OS subprocess running the
// parsl-cwl-worker binary, speaking the worker session protocol over
// stdin/stdout pipes. A worker crash is contained: every task in flight
// on that worker fails with ErrWorkerLost and the executor re-dispatches.
type ProcessProvider struct {
	opts ProcessOptions

	// remoteTasks counts tasks actually shipped across the pipe protocol
	// (as opposed to in-process fallbacks for unserializable closures).
	remoteTasks atomic.Int64

	mu      sync.Mutex
	blocks  map[int]*processHandle
	spares  []*processHandle // warm pool: handshaken workers awaiting a block
	slots   int              // capacity spares are forked with
	filling bool             // a fillWarm goroutine is running
	closed  bool             // Cancel was called
}

// NewProcessProvider builds a ProcessProvider.
func NewProcessProvider(opts ProcessOptions) *ProcessProvider {
	if opts.HelloTimeout <= 0 {
		opts.HelloTimeout = 10 * time.Second
	}
	p := &ProcessProvider{opts: opts, blocks: map[int]*processHandle{}, slots: runtime.NumCPU()}
	if opts.WarmPool > 0 {
		go p.fillWarm()
	}
	return p
}

// Name implements ExecutionProvider.
func (p *ProcessProvider) Name() string { return "process" }

// RemoteCapable implements provider.RemoteCapable: tasks with a RemoteSpec
// cross the pipe.
func (p *ProcessProvider) RemoteCapable() bool { return true }

// Launch implements ExecutionProvider: adopt a warm spare worker when the
// pool has one, otherwise start a worker subprocess and complete the session
// handshake with it.
func (p *ProcessProvider) Launch(block, slots int) (ManagerHandle, error) {
	slots = max(slots, 1)
	if h := p.takeSpare(slots); h != nil {
		h.block = block
		p.mu.Lock()
		p.blocks[block] = h
		p.mu.Unlock()
		metBlocksLaunched.With("process").Inc()
		metWarmHits.With("process").Inc()
		go p.fillWarm()
		return h, nil
	}
	h, err := p.spawnWorker(block, slots)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.blocks[block] = h
	p.mu.Unlock()
	metBlocksLaunched.With("process").Inc()
	return h, nil
}

// spawnWorker starts one worker subprocess with the given slot count (passed
// as -capacity) and completes the handshake. block < 0 marks a warm spare
// not yet bound to a block.
func (p *ProcessProvider) spawnWorker(block, slots int) (*processHandle, error) {
	name := fmt.Sprintf("worker block %d", block)
	if block < 0 {
		name = "warm worker"
	}
	argv := p.opts.Command
	if len(argv) == 0 {
		def, err := DefaultWorkerCommand()
		if err != nil {
			return nil, err
		}
		argv = def
	}
	args := append(argv[1:len(argv):len(argv)], "-capacity", strconv.Itoa(slots))
	cmd := exec.Command(argv[0], args...)
	cmd.Dir = p.opts.Dir
	cmd.Env = append(os.Environ(), p.opts.Env...)
	if p.opts.Stderr != nil {
		cmd.Stderr = p.opts.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker %q: %w", argv[0], err)
	}
	h := &processHandle{
		provider: p,
		block:    block,
		cmd:      cmd,
		inClose:  stdin,
		waitDone: make(chan struct{}),
	}

	// The handshake proves the binary speaks the protocol before the block
	// is handed to the executor. Pipes have no read deadlines, so the accept
	// runs in a goroutine raced against the hello timeout.
	fc := NewFrameConn(stdout, stdin, nil)
	type acceptResult struct {
		sess  *ManagerSession
		hello Hello
		err   error
	}
	helloCh := make(chan acceptResult, 1)
	go func() {
		sess, hello, err := AcceptWorkerSession(fc, AcceptOptions{})
		helloCh <- acceptResult{sess, hello, err}
	}()
	select {
	case res := <-helloCh:
		if res.err != nil {
			h.destroy()
			return nil, fmt.Errorf("%s: %w", name, res.err)
		}
		h.pid.Store(int64(res.hello.PID))
		h.sess = res.sess
		h.sess.OnDead = h.onSessionDead
		go h.sess.ReadLoop()
	case <-time.After(p.opts.HelloTimeout):
		h.destroy()
		return nil, fmt.Errorf("%s: no hello within %s", name, p.opts.HelloTimeout)
	}
	return h, nil
}

// takeSpare pops the first live warm worker with the wanted slot count, if
// any. Spares forked for another slot count are retired, and later spares
// are forked with this one.
func (p *ProcessProvider) takeSpare(slots int) *processHandle {
	p.mu.Lock()
	p.slots = slots
	var found *processHandle
	var stale []*processHandle
	for len(p.spares) > 0 && found == nil {
		h := p.spares[0]
		p.spares = p.spares[1:]
		switch {
		case h.Slots() != slots:
			stale = append(stale, h)
		case h.Alive():
			found = h
		}
	}
	p.mu.Unlock()
	for _, h := range stale {
		go h.Close()
	}
	return found
}

// fillWarm tops the warm pool back up to its target size. One filler runs at
// a time; a spawn failure stops it (the next cold Launch surfaces the error).
func (p *ProcessProvider) fillWarm() {
	p.mu.Lock()
	if p.filling || p.closed {
		p.mu.Unlock()
		return
	}
	p.filling = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.filling = false
		p.mu.Unlock()
	}()
	for {
		p.mu.Lock()
		need := !p.closed && len(p.spares) < p.opts.WarmPool
		slots := p.slots
		p.mu.Unlock()
		if !need {
			return
		}
		h, err := p.spawnWorker(-1, slots)
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = h.Close()
			return
		}
		p.spares = append(p.spares, h)
		p.mu.Unlock()
	}
}

// removeSpare drops a dead worker from the warm pool (no-op for adopted
// handles).
func (p *ProcessProvider) removeSpare(h *processHandle) {
	p.mu.Lock()
	for i, cand := range p.spares {
		if cand == h {
			p.spares = append(p.spares[:i], p.spares[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// WarmWorkers reports the current warm-pool size (tests and status).
func (p *ProcessProvider) WarmWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.spares)
}

// Status implements ExecutionProvider.
func (p *ProcessProvider) Status() map[int]BlockStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]BlockStatus, len(p.blocks))
	for id, h := range p.blocks {
		out[id] = h.status()
	}
	return out
}

// RemoteTasks reports how many tasks were shipped to workers over the pipe
// protocol — the observable difference between genuine process isolation and
// the in-process fallback for unserializable tasks.
func (p *ProcessProvider) RemoteTasks() int64 { return p.remoteTasks.Load() }

// WorkerPids reports the live workers' process ids by block — fault-injection
// tests use it to SIGKILL a genuine worker.
func (p *ProcessProvider) WorkerPids() map[int]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[int]int{}
	for id, h := range p.blocks {
		if h.Alive() {
			out[id] = int(h.pid.Load())
		}
	}
	return out
}

// Cancel implements ExecutionProvider.
func (p *ProcessProvider) Cancel() error {
	p.mu.Lock()
	p.closed = true
	blocks := make([]*processHandle, 0, len(p.blocks)+len(p.spares))
	for _, h := range p.blocks {
		blocks = append(blocks, h)
	}
	blocks = append(blocks, p.spares...)
	p.spares = nil
	p.mu.Unlock()
	for _, h := range blocks {
		h.Close()
	}
	return nil
}

// processHandle is one live worker subprocess: a ManagerSession over the
// child's stdin/stdout plus the process bookkeeping (reaping, kill-on-close).
type processHandle struct {
	provider *ProcessProvider
	block    int
	cmd      *exec.Cmd
	sess     *ManagerSession
	inClose  io.Closer
	pid      atomic.Int64

	closed   atomic.Bool   // Close was called (intentional teardown)
	waitOnce sync.Once     // exactly one goroutine calls cmd.Wait
	waitDone chan struct{} // closed once cmd.Wait has returned
}

// Block implements ManagerHandle.
func (h *processHandle) Block() int { return h.block }

// Pid returns the worker's process id.
func (h *processHandle) Pid() int { return int(h.pid.Load()) }

// onSessionDead runs once when the pipe session ends: count an unexpected
// death and reap the child either way (dead workers must not linger as
// zombies).
func (h *processHandle) onSessionDead(graceful bool) {
	if !graceful && !h.closed.Load() {
		metWorkerLost.With("process").Inc()
	}
	if h.provider != nil {
		h.provider.removeSpare(h)
	}
	h.reap()
}

// reap waits for the child exactly once and publishes completion through
// waitDone.
func (h *processHandle) reap() {
	h.waitOnce.Do(func() {
		go func() {
			_ = h.cmd.Wait()
			close(h.waitDone)
		}()
	})
}

// Slots implements ManagerHandle: the capacity the worker announced.
func (h *processHandle) Slots() int { return h.sess.Slots() }

// Dispatch implements ManagerHandle. Tasks with a RemoteSpec cross the pipe;
// tasks without one (non-serializable closures) run in the engine process —
// process isolation applies to what the protocol can express.
func (h *processHandle) Dispatch(batch []*Task) {
	if h.provider != nil {
		for _, t := range batch {
			if t.Remote != nil {
				h.provider.remoteTasks.Add(1)
			}
		}
	}
	h.sess.Dispatch(batch)
}

// Alive implements ManagerHandle.
func (h *processHandle) Alive() bool { return h.sess.Alive() }

func (h *processHandle) status() BlockStatus {
	switch {
	case h.closed.Load():
		return BlockStatus{State: BlockClosed, Detail: fmt.Sprintf("pid %d", h.pid.Load())}
	case !h.Alive():
		return BlockStatus{State: BlockDead, Detail: fmt.Sprintf("pid %d exited", h.pid.Load())}
	default:
		return BlockStatus{State: BlockRunning, Detail: fmt.Sprintf("pid %d", h.pid.Load())}
	}
}

// Close implements ManagerHandle: ask the worker to drain by closing its
// stdin, then make sure it is gone.
func (h *processHandle) Close() error {
	if !h.closed.CompareAndSwap(false, true) {
		return nil
	}
	_ = h.inClose.Close() // EOF asks the worker to drain and exit
	h.reap()
	select {
	case <-h.waitDone:
	case <-time.After(5 * time.Second):
		if h.cmd.Process != nil {
			_ = h.cmd.Process.Kill()
		}
		<-h.waitDone
	}
	h.sess.MarkDead(true)
	return nil
}

// destroy tears down a handle whose launch failed (no session exists yet).
func (h *processHandle) destroy() {
	h.closed.Store(true)
	if h.cmd.Process != nil {
		_ = h.cmd.Process.Kill()
	}
	h.reap()
}
