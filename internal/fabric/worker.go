package fabric

import (
	"crypto/tls"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/provider"
)

// ConnectOptions configures the dial side of the fabric: a worker process
// connecting to an engine's interchange listener.
type ConnectOptions struct {
	// Addr is the interchange address to dial ("host:port").
	Addr string
	// Secret is presented in the hello; must match the engine's.
	Secret string
	// TLS, when non-nil, dials with client TLS.
	TLS *tls.Config
	// ID names this worker across reconnects ("" = derived from hostname
	// and pid).
	ID string
	// Capacity is the worker's slot count, announced in the hello: it runs at
	// most this many tasks at once (0 = provider.DefaultCapacity, one per
	// CPU).
	Capacity int
	// DialTimeout bounds one dial plus handshake attempt (default 10s).
	DialTimeout time.Duration
	// Reconnect re-dials after a broken session instead of exiting. A
	// rejected hello (wrong secret, wrong protocol) is always terminal.
	Reconnect bool
	// ReconnectWait is the initial backoff between reconnect attempts
	// (default 1s, doubling to 30s, with ±25% jitter per attempt so a
	// severed fleet does not reconnect in lockstep).
	ReconnectWait time.Duration
	// MaxAttempts caps consecutive failed sessions when reconnecting
	// (0 = unlimited).
	MaxAttempts int
	// Drain, when non-nil, triggers a graceful drain when closed: finish
	// in-flight tasks, send final responses and a bye, deregister, return
	// nil. Wired to SIGTERM/SIGINT by the worker binary.
	Drain <-chan struct{}
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

var workerSeq atomic.Int64

// defaultWorkerID derives a stable-enough worker identity from the host,
// pid and a process-local counter.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d-%d", host, os.Getpid(), workerSeq.Add(1))
}

// RunWorker is the parsl-cwl-worker network-mode main loop: dial the
// interchange, register, serve the session, optionally reconnecting when the
// connection breaks. Returns nil after a graceful drain (engine drain frame,
// engine EOF, or the Drain channel); a rejected hello or exhausted reconnect
// budget returns the error.
func RunWorker(opts ConnectOptions) error {
	if opts.Addr == "" {
		return fmt.Errorf("worker connect: no interchange address")
	}
	if opts.ID == "" {
		opts.ID = defaultWorkerID()
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.Capacity < 1 {
		opts.Capacity = provider.DefaultCapacity()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	wait := opts.ReconnectWait
	if wait <= 0 {
		wait = time.Second
	}
	const maxWait = 30 * time.Second

	attempts := 0
	for {
		err := runSession(opts, logf)
		if err == nil {
			return nil
		}
		if errors.Is(err, provider.ErrHelloRejected) {
			// Redialing with the same credentials cannot succeed.
			return err
		}
		attempts++
		if !opts.Reconnect || (opts.MaxAttempts > 0 && attempts >= opts.MaxAttempts) {
			return err
		}
		sleep := jitterWait(wait)
		logf("session with %s ended (%v); reconnecting in %s", opts.Addr, err, sleep.Round(time.Millisecond))
		select {
		case <-opts.Drain:
			return nil
		case <-time.After(sleep):
		}
		if wait *= 2; wait > maxWait {
			wait = maxWait
		}
	}
}

// jitterWait spreads a reconnect delay over [0.75d, 1.25d) so a worker fleet
// severed by one engine restart does not re-dial in lockstep and hammer the
// fresh listener in synchronized waves.
func jitterWait(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d - d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

// runSession runs one dial → handshake → serve cycle.
func runSession(opts ConnectOptions, logf func(string, ...any)) error {
	d := &net.Dialer{Timeout: opts.DialTimeout}
	var conn net.Conn
	var err error
	if opts.TLS != nil {
		conn, err = tls.DialWithDialer(d, "tcp", opts.Addr, opts.TLS)
	} else {
		conn, err = d.Dial("tcp", opts.Addr)
	}
	if err != nil {
		return fmt.Errorf("dialing interchange %s: %w", opts.Addr, err)
	}
	defer conn.Close()

	// The handshake must not hang on a wedged engine; task traffic after it
	// has no deadline (tasks can legitimately run for hours).
	_ = conn.SetDeadline(time.Now().Add(opts.DialTimeout))
	fc := provider.NewFrameConn(conn, conn, conn)
	hello := provider.Hello{
		PID:      os.Getpid(),
		ID:       opts.ID,
		Capacity: opts.Capacity,
		Secret:   opts.Secret,
	}
	ack, err := provider.DialWorkerSession(fc, hello)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline(time.Time{})

	logf("registered with %s as %s (capacity %d, heartbeat %dms)", opts.Addr, opts.ID, opts.Capacity, ack.HeartbeatMs)
	return provider.ServeWorkerSession(fc, provider.SessionOptions(hello, ack, opts.Drain))
}
