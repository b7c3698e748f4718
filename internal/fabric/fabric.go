// Package fabric is the engine's network execution fabric: the
// DFK↔interchange↔manager split of Parsl's HighThroughputExecutor (Babuji et
// al., "Parsl: Pervasive Parallel Programming in Python") lifted onto real
// sockets. The engine owns a TCP (optionally TLS) listener — the interchange
// — and remote parsl-cwl-worker processes dial in, authenticate with a
// shared secret, and register with an identity and capacity. NetProvider
// implements provider.ExecutionProvider over that registration pool: Launch
// adopts a registered worker as a pilot block (optionally spawning one
// first), per-connection heartbeats feed the executor's lost-manager
// machinery, and workers deregister with a graceful drain.
//
// The wire protocol is internal/provider's transport-agnostic worker session
// (FrameConn + versioned hello + heartbeat/drain/bye frames) — the same
// session ProcessProvider speaks over stdin/stdout pipes, so a workflow's
// results are byte-identical whichever transport carried its tasks.
package fabric

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provider"
)

// Options configures an interchange listener and its NetProvider.
type Options struct {
	// Addr is the TCP listen address (e.g. ":9420", "127.0.0.1:0").
	Addr string
	// Secret is the shared secret every worker hello must present.
	// Strongly recommended: without it any process that can reach the
	// listener can register as a worker. Empty disables secret auth.
	Secret string
	// TLSConfig, when non-nil, wraps every accepted connection in server
	// TLS. Alternatively set CertFile/KeyFile.
	TLSConfig *tls.Config
	// CertFile/KeyFile load a server certificate when TLSConfig is nil.
	CertFile string
	KeyFile  string
	// HeartbeatPeriod is the heartbeat interval announced to workers
	// (default 5s).
	HeartbeatPeriod time.Duration
	// HeartbeatMisses is how many silent periods mark a session dead
	// (default 3).
	HeartbeatMisses int
	// HelloTimeout bounds TLS handshake plus hello exchange for a new
	// connection (default 5s).
	HelloTimeout time.Duration
	// AdoptTimeout bounds how long Launch waits for a worker registration
	// (default 30s).
	AdoptTimeout time.Duration
	// DrainTimeout bounds how long Close waits for a worker to drain before
	// severing the connection (default 5s).
	DrainTimeout time.Duration
	// Spawn, when set, is called by Launch before waiting for a
	// registration — a hook to start a worker expected to dial in to addr,
	// the listener's bound address (a local subprocess with -connect, a
	// cloud instance, a batch job). A negative block id asks for a warm-pool
	// spare not yet bound to any block; those calls may run before Listen
	// returns, so the hook must not reach the provider through the caller.
	Spawn func(addr string, block int) error
	// WarmPool, when positive and Spawn is set, keeps this many registered
	// spare workers on hand: Listen pre-spawns them, Launch adopts one
	// instead of paying spawn+dial+hello latency, and each adoption (or
	// spare death) triggers an asynchronous replacement.
	WarmPool int
}

func (o *Options) fill() error {
	if o.Addr == "" {
		return fmt.Errorf("net provider requires a listen address")
	}
	if o.HeartbeatPeriod <= 0 {
		o.HeartbeatPeriod = 5 * time.Second
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 3
	}
	if o.HelloTimeout <= 0 {
		o.HelloTimeout = 5 * time.Second
	}
	if o.AdoptTimeout <= 0 {
		o.AdoptTimeout = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.TLSConfig == nil && (o.CertFile != "" || o.KeyFile != "") {
		if o.CertFile == "" || o.KeyFile == "" {
			return fmt.Errorf("net provider TLS needs both a certificate and a key file")
		}
		cert, err := tls.LoadX509KeyPair(o.CertFile, o.KeyFile)
		if err != nil {
			return fmt.Errorf("loading net provider TLS keypair: %w", err)
		}
		o.TLSConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
	}
	return nil
}

// NetProvider is an ExecutionProvider whose blocks are remote workers
// connected to the engine's interchange listener.
type NetProvider struct {
	opts Options
	ln   net.Listener

	remoteTasks atomic.Int64

	closedCh chan struct{}

	mu      sync.Mutex
	closed  bool
	pending []*workerConn       // registered, awaiting adoption
	waiters []chan *workerConn  // Launch calls awaiting a registration
	blocks  map[int]*netHandle  // adopted workers by block id
	queued  map[int]string      // Launch in progress, by block id
	seen    map[string]struct{} // worker identities ever registered
}

// Listen opens the interchange listener and returns its provider.
func Listen(opts Options) (*NetProvider, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("net provider listener: %w", err)
	}
	p := &NetProvider{
		opts:     opts,
		ln:       ln,
		closedCh: make(chan struct{}),
		blocks:   map[int]*netHandle{},
		queued:   map[int]string{},
		seen:     map[string]struct{}{},
	}
	go p.acceptLoop()
	if opts.WarmPool > 0 && opts.Spawn != nil {
		for i := 0; i < opts.WarmPool; i++ {
			go p.spawnSpare()
		}
	}
	return p, nil
}

// spawnSpare asks the Spawn hook for one warm-pool worker (block id -1).
// Failures are swallowed: the pool is an optimization, and a cold Launch
// surfaces spawn errors on its own.
func (p *NetProvider) spawnSpare() {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed || p.opts.Spawn == nil {
		return
	}
	_ = p.opts.Spawn(p.Addr(), -1)
}

// Addr is the listener's bound address (resolves ":0" ports).
func (p *NetProvider) Addr() string { return p.ln.Addr().String() }

// Name implements ExecutionProvider.
func (p *NetProvider) Name() string { return "net" }

// RemoteCapable implements provider.RemoteCapable: tasks with a RemoteSpec
// cross the network.
func (p *NetProvider) RemoteCapable() bool { return true }

// RemoteTasks reports how many tasks were shipped to workers over the
// network session protocol.
func (p *NetProvider) RemoteTasks() int64 { return p.remoteTasks.Load() }

// RegisteredWorkers reports registered-but-unadopted worker sessions.
func (p *NetProvider) RegisteredWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// acceptLoop admits connections until the listener closes.
func (p *NetProvider) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		metConnections.Inc()
		go p.handleConn(c)
	}
}

// handleConn authenticates one inbound connection and registers its worker
// session. A connection that fails TLS, the protocol version check, or secret
// verification is rejected before any task frame is exchanged.
func (p *NetProvider) handleConn(c net.Conn) {
	_ = c.SetDeadline(time.Now().Add(p.opts.HelloTimeout))
	if p.opts.TLSConfig != nil {
		tc := tls.Server(c, p.opts.TLSConfig)
		if err := tc.Handshake(); err != nil {
			metRejects.With("tls").Inc()
			_ = c.Close()
			return
		}
		c = tc
	}
	fc := provider.NewFrameConn(c, c, c)
	sess, hello, err := provider.AcceptWorkerSession(fc, provider.AcceptOptions{
		Secret:    p.opts.Secret,
		Heartbeat: p.opts.HeartbeatPeriod,
	})
	if err != nil {
		metRejects.With(rejectReason(err)).Inc()
		_ = c.Close()
		return
	}
	_ = c.SetDeadline(time.Time{})

	wc := &workerConn{conn: c, sess: sess, hello: hello, remote: c.RemoteAddr().String()}
	sess.OnDead = func(graceful bool) { p.onConnDead(wc, graceful) }

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = c.Close()
		return
	}
	if hello.ID != "" {
		if _, again := p.seen[hello.ID]; again {
			metReconnects.Inc()
		} else {
			p.seen[hello.ID] = struct{}{}
		}
	}
	metRegistrations.Inc()
	metWorkers.Add(1)
	var waiter chan *workerConn
	if len(p.waiters) > 0 {
		waiter = p.waiters[0]
		p.waiters = p.waiters[1:]
	} else {
		p.pending = append(p.pending, wc)
	}
	p.mu.Unlock()

	go sess.ReadLoop()
	if waiter != nil {
		waiter <- wc
	}
}

// rejectReason labels a handshake failure for the rejects metric.
func rejectReason(err error) string {
	switch {
	case errors.Is(err, provider.ErrBadSecret):
		return "secret"
	case errors.Is(err, provider.ErrHelloRejected):
		return "proto"
	default:
		return "hello"
	}
}

// onConnDead runs exactly once per session, whether the worker drained
// gracefully, the connection broke, or the engine severed it.
func (p *NetProvider) onConnDead(wc *workerConn, graceful bool) {
	_ = wc.conn.Close()
	metWorkers.Add(-1)
	p.mu.Lock()
	h := wc.handle
	wasPending := false
	for i, cand := range p.pending {
		if cand == wc {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			wasPending = true
			break
		}
	}
	p.mu.Unlock()
	if h != nil && !graceful && !h.closed.Load() {
		provider.RecordWorkerLost("net")
	}
	// A dead warm spare leaves the pool short; ask for a replacement.
	if wasPending && p.opts.WarmPool > 0 {
		go p.spawnSpare()
	}
}

// Launch implements ExecutionProvider: adopt a registered worker as the
// block, spawning one first when a Spawn hook is configured, and waiting up
// to AdoptTimeout for the registration. While waiting the block is visible
// as queued in Status. The block's slots are the capacity the worker
// announced, not the slots asked for.
func (p *NetProvider) Launch(block, _ int) (provider.ManagerHandle, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("net provider is closed")
	}
	p.queued[block] = fmt.Sprintf("awaiting worker registration on %s", p.Addr())
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.queued, block)
		p.mu.Unlock()
	}()

	// Warm pool: adopt an already-registered spare and replace it in the
	// background instead of spawning for this block and waiting out the
	// worker's startup + dial + hello.
	if p.opts.WarmPool > 0 {
		if h := p.tryAdoptPending(block); h != nil {
			provider.RecordWarmHit("net")
			go p.spawnSpare()
			return h, nil
		}
	}
	if p.opts.Spawn != nil {
		if err := p.opts.Spawn(p.Addr(), block); err != nil {
			return nil, fmt.Errorf("spawning net worker for block %d: %w", block, err)
		}
	}
	deadline := time.Now().Add(p.opts.AdoptTimeout)
	for {
		p.mu.Lock()
		var wc *workerConn
		for len(p.pending) > 0 {
			cand := p.pending[0]
			p.pending = p.pending[1:]
			if cand.sess.Alive() {
				wc = cand
				break
			}
		}
		if wc != nil {
			h := p.adoptLocked(block, wc)
			p.mu.Unlock()
			return h, nil
		}
		if p.closed {
			p.mu.Unlock()
			return nil, fmt.Errorf("net provider is closed")
		}
		waiter := make(chan *workerConn, 1)
		p.waiters = append(p.waiters, waiter)
		p.mu.Unlock()

		select {
		case wc := <-waiter:
			if wc.sess.Alive() {
				p.mu.Lock()
				h := p.adoptLocked(block, wc)
				p.mu.Unlock()
				return h, nil
			}
			// Dead on arrival — wait for the next registration.
		case <-time.After(time.Until(deadline)):
			p.dropWaiter(waiter)
			// A registration can race the timeout; prefer adopting it over
			// failing the launch.
			select {
			case wc := <-waiter:
				if wc.sess.Alive() {
					p.mu.Lock()
					h := p.adoptLocked(block, wc)
					p.mu.Unlock()
					return h, nil
				}
			default:
			}
			return nil, fmt.Errorf("no worker registered for block %d within %s (listener %s)",
				block, p.opts.AdoptTimeout, p.Addr())
		case <-p.closedCh:
			p.dropWaiter(waiter)
			return nil, fmt.Errorf("net provider is closed")
		}
	}
}

// tryAdoptPending adopts the first live registered-but-unadopted worker, or
// returns nil without waiting.
func (p *NetProvider) tryAdoptPending(block int) *netHandle {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.pending) > 0 {
		cand := p.pending[0]
		p.pending = p.pending[1:]
		if cand.sess.Alive() {
			return p.adoptLocked(block, cand)
		}
	}
	return nil
}

func (p *NetProvider) dropWaiter(w chan *workerConn) {
	p.mu.Lock()
	for i, cand := range p.waiters {
		if cand == w {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// adoptLocked binds a registered worker to a block. Caller holds p.mu.
func (p *NetProvider) adoptLocked(block int, wc *workerConn) *netHandle {
	h := &netHandle{
		p:           p,
		block:       block,
		wc:          wc,
		hbThreshold: p.opts.HeartbeatPeriod * time.Duration(p.opts.HeartbeatMisses),
	}
	wc.handle = h
	p.blocks[block] = h
	provider.RecordBlockLaunched("net")
	return h
}

// Status implements ExecutionProvider.
func (p *NetProvider) Status() map[int]provider.BlockStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]provider.BlockStatus, len(p.blocks)+len(p.queued))
	for id, detail := range p.queued {
		out[id] = provider.BlockStatus{State: provider.BlockQueued, Detail: detail}
	}
	for id, h := range p.blocks {
		out[id] = h.status()
	}
	return out
}

// LiveBlocks reports blocks whose worker session is still up.
func (p *NetProvider) LiveBlocks() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []int
	for id, h := range p.blocks {
		// The session, not h.Alive: a stale-heartbeat verdict would end the
		// session and re-enter p.mu from its death callback.
		if h.wc.sess.Alive() {
			out = append(out, id)
		}
	}
	return out
}

// KillConnection abruptly severs a live block's TCP connection — no drain,
// no goodbye — simulating a network partition or a remote host loss.
// Fault-injection tests use it the way process tests use SIGKILL. It
// reports whether a live block with that id existed.
//
// The close is an RST, not a FIN: a plain Close would read as EOF on the
// worker, and worker sessions treat engine EOF as the graceful-drain signal
// — the opposite of the abrupt loss this simulates. The reset makes the
// worker observe a real error, so its reconnect loop engages.
func (p *NetProvider) KillConnection(block int) bool {
	p.mu.Lock()
	h := p.blocks[block]
	p.mu.Unlock()
	if h == nil || !h.wc.sess.Alive() {
		return false
	}
	abortConn(h.wc.conn)
	return true
}

// abortConn closes a connection with an immediate TCP reset when the
// transport supports it (plain TCP or TLS over TCP).
func abortConn(conn net.Conn) {
	c := conn
	if tc, ok := c.(*tls.Conn); ok {
		c = tc.NetConn()
	}
	if lc, ok := c.(interface{ SetLinger(int) error }); ok {
		_ = lc.SetLinger(0)
	}
	_ = conn.Close()
}

// Cancel implements ExecutionProvider: stop the listener and sever every
// session. The provider is unusable afterwards.
func (p *NetProvider) Cancel() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.closedCh)
	conns := make([]*workerConn, 0, len(p.pending)+len(p.blocks))
	conns = append(conns, p.pending...)
	for _, h := range p.blocks {
		h.closed.Store(true) // orderly teardown, not a worker loss
		conns = append(conns, h.wc)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, wc := range conns {
		_ = wc.conn.Close()
	}
	return err
}

// workerConn is one registered worker session.
type workerConn struct {
	conn   net.Conn
	sess   *provider.ManagerSession
	hello  provider.Hello
	remote string
	handle *netHandle // set at adoption, under the provider mutex
}

// netHandle is one adopted block: a ManagerSession over a TCP connection
// plus heartbeat-staleness detection.
type netHandle struct {
	p           *NetProvider
	block       int
	wc          *workerConn
	hbThreshold time.Duration
	closed      atomic.Bool // Close was called (intentional teardown)
	stale       atomic.Bool // heartbeat silence already counted
}

// Block implements ManagerHandle.
func (h *netHandle) Block() int { return h.block }

// WorkerID reports the remote worker's self-declared identity.
func (h *netHandle) WorkerID() string { return h.wc.hello.ID }

// Slots implements ManagerHandle: the capacity the worker announced.
func (h *netHandle) Slots() int { return h.wc.sess.Slots() }

// Dispatch implements ManagerHandle. Tasks with a RemoteSpec cross the
// network; tasks without one (non-serializable closures) run in the engine
// process. Successful remote tasks feed the network round-trip histogram.
func (h *netHandle) Dispatch(batch []*provider.Task) {
	start := time.Now()
	for _, t := range batch {
		if t.Remote == nil {
			continue
		}
		h.p.remoteTasks.Add(1)
		done := t.Done
		t.Done = func(res any, err error) {
			if err == nil {
				observeNetRoundtrip(start)
			}
			done(res, err)
		}
	}
	h.wc.sess.Dispatch(batch)
}

// Alive implements ManagerHandle: the session must be up and the worker's
// heartbeat fresh. A session silent past the threshold is declared dead —
// the signal that feeds the executor's lost-manager redispatch.
func (h *netHandle) Alive() bool {
	if !h.wc.sess.Alive() {
		return false
	}
	if h.hbThreshold > 0 && time.Since(h.wc.sess.LastBeat()) > h.hbThreshold {
		if h.stale.CompareAndSwap(false, true) {
			metHeartbeatMisses.Inc()
		}
		// Severing the connection both completes outstanding tasks promptly
		// and tells a half-alive worker its session is over.
		h.wc.sess.MarkDead(false)
		_ = h.wc.conn.Close()
		return false
	}
	return true
}

func (h *netHandle) status() provider.BlockStatus {
	id := h.wc.hello.ID
	switch {
	case h.closed.Load():
		return provider.BlockStatus{State: provider.BlockClosed, Detail: fmt.Sprintf("worker %s", id)}
	case !h.wc.sess.Alive() && h.wc.sess.Drained():
		return provider.BlockStatus{State: provider.BlockClosed, Detail: fmt.Sprintf("worker %s drained", id)}
	case !h.wc.sess.Alive():
		return provider.BlockStatus{State: provider.BlockDead, Detail: fmt.Sprintf("worker %s at %s lost", id, h.wc.remote)}
	default:
		return provider.BlockStatus{State: provider.BlockRunning,
			Detail: fmt.Sprintf("worker %s at %s, busy %d", id, h.wc.remote, h.wc.sess.Busy())}
	}
}

// Close implements ManagerHandle: ask the worker to drain, wait for its
// goodbye up to DrainTimeout, then sever the connection.
func (h *netHandle) Close() error {
	if !h.closed.CompareAndSwap(false, true) {
		return nil
	}
	if h.wc.sess.Alive() {
		if err := h.wc.sess.SendDrain(); err == nil {
			select {
			case <-h.wc.sess.Dead():
			case <-time.After(h.p.opts.DrainTimeout):
			}
		}
	}
	h.wc.sess.MarkDead(true)
	// The session's death callback may have closed the conn already; either
	// way the block is down, which is all Close promises.
	_ = h.wc.conn.Close()
	return nil
}
