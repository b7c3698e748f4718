package fabric

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/provider"
)

// testOptions are fast-cadence interchange options for loopback tests.
func testOptions(secret string) Options {
	return Options{
		Addr:            "127.0.0.1:0",
		Secret:          secret,
		HeartbeatPeriod: 25 * time.Millisecond,
		HeartbeatMisses: 4,
		AdoptTimeout:    5 * time.Second,
		DrainTimeout:    2 * time.Second,
	}
}

// startWorker runs a fabric worker in-process and reports its exit error.
func startWorker(t *testing.T, opts ConnectOptions) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- RunWorker(opts) }()
	return done
}

func echoTask(t *testing.T, id int, value any) *provider.Task {
	t.Helper()
	spec, err := provider.NewEchoSpec(value)
	if err != nil {
		t.Fatalf("NewEchoSpec: %v", err)
	}
	return &provider.Task{ID: id, Fn: func() (any, error) { return value, nil }, Remote: spec}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// selfSignedCert builds an in-memory certificate for 127.0.0.1 with the
// given validity window, returning the server keypair and a pool trusting it.
func selfSignedCert(t *testing.T, notBefore, notAfter time.Time) (tls.Certificate, *x509.CertPool) {
	t.Helper()
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatalf("generating key: %v", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "parsl-cwl-interchange"},
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:  []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:         true, BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, pub, priv)
	if err != nil {
		t.Fatalf("creating certificate: %v", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatalf("parsing certificate: %v", err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: priv, Leaf: leaf}, pool
}

func TestNetProviderEchoRoundtrip(t *testing.T) {
	opts := testOptions("s3cret")
	var p *NetProvider
	opts.Spawn = func(addr string, block int) error {
		startWorker(t, ConnectOptions{Addr: addr, Secret: "s3cret", ID: "w1"})
		return nil
	}
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()

	h, err := p.Launch(1, 1)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if got := h.Block(); got != 1 {
		t.Fatalf("Block() = %d, want 1", got)
	}
	res, err := runOne(h, echoTask(t, 7, "over the wire"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res != "over the wire" {
		t.Fatalf("Run = %v, want the echoed value", res)
	}
	if got := p.RemoteTasks(); got != 1 {
		t.Fatalf("RemoteTasks = %d, want 1", got)
	}
	if !h.Alive() {
		t.Fatal("handle should be alive after a successful roundtrip")
	}
	st := p.Status()[1]
	if st.State != provider.BlockRunning || !strings.Contains(st.Detail, "w1") {
		t.Fatalf("status = %+v, want running with the worker id", st)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := p.Status()[1].State; got != provider.BlockClosed {
		t.Fatalf("status after Close = %s, want closed", got)
	}
}

func TestNetProviderInProcessFallback(t *testing.T) {
	opts := testOptions("")
	var p *NetProvider
	opts.Spawn = func(addr string, _ int) error { startWorker(t, ConnectOptions{Addr: addr}); return nil }
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()
	h, err := p.Launch(1, 1)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := runOne(h, &provider.Task{ID: 1, Fn: func() (any, error) { return "local", nil }})
	if err != nil || res != "local" {
		t.Fatalf("fallback Run = %v, %v; want local, nil", res, err)
	}
	if got := p.RemoteTasks(); got != 0 {
		t.Fatalf("RemoteTasks = %d, want 0 for an in-process fallback", got)
	}
}

func TestNetProviderWrongSecretRejected(t *testing.T) {
	p, err := Listen(testOptions("right"))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()

	for name, secret := range map[string]string{"wrong": "wrong", "missing": ""} {
		err := <-startWorker(t, ConnectOptions{Addr: p.Addr(), Secret: secret})
		if !errors.Is(err, provider.ErrHelloRejected) {
			t.Fatalf("%s-secret worker error = %v, want ErrHelloRejected", name, err)
		}
	}
	if got := p.RegisteredWorkers(); got != 0 {
		t.Fatalf("RegisteredWorkers = %d after rejected hellos, want 0", got)
	}
}

// Older workers dialing a version-4 interchange are refused at hello, and
// each refusal is counted under reason "proto": a version-2 worker expects
// JSON task frames, a version-3 worker runs every task it receives at once,
// so it cannot honour a dispatch window sized by its capacity.
func TestNetProviderOldProtocolRejected(t *testing.T) {
	p, err := Listen(testOptions("s"))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()

	for _, proto := range []int{2, 3} {
		before := metRejects.With("proto").Value()
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		fc := provider.NewFrameConn(conn, conn, conn)
		if err := fc.Send(map[string]any{"proto": proto, "secret": "s", "capacity": 2}); err != nil {
			t.Fatalf("sending v%d hello: %v", proto, err)
		}
		body, err := fc.ReadRaw()
		if err != nil {
			t.Fatalf("reading v%d ack: %v", proto, err)
		}
		conn.Close()
		if !strings.Contains(string(body), `"ok":false`) {
			t.Fatalf("v%d ack = %s, want a rejection", proto, body)
		}
		waitFor(t, "the proto reject to be counted", func() bool {
			return metRejects.With("proto").Value() == before+1
		})
		if got := p.RegisteredWorkers(); got != 0 {
			t.Fatalf("RegisteredWorkers = %d after a v%d hello, want 0", got, proto)
		}
	}
}

// A rejected worker must not retry: the reconnect loop treats a hello
// rejection as terminal even with Reconnect on.
func TestNetWorkerRejectionIsTerminalDespiteReconnect(t *testing.T) {
	p, err := Listen(testOptions("right"))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()
	select {
	case err := <-startWorker(t, ConnectOptions{
		Addr: p.Addr(), Secret: "wrong", Reconnect: true, ReconnectWait: 10 * time.Millisecond,
	}):
		if !errors.Is(err, provider.ErrHelloRejected) {
			t.Fatalf("worker error = %v, want ErrHelloRejected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rejected worker kept reconnecting instead of exiting")
	}
}

func TestNetProviderTLS(t *testing.T) {
	cert, pool := selfSignedCert(t, time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
	opts := testOptions("tls-secret")
	opts.TLSConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
	var p *NetProvider
	opts.Spawn = func(addr string, _ int) error {
		startWorker(t, ConnectOptions{
			Addr: addr, Secret: "tls-secret", ID: "tls-w",
			TLS: &tls.Config{RootCAs: pool},
		})
		return nil
	}
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()
	h, err := p.Launch(1, 1)
	if err != nil {
		t.Fatalf("Launch over TLS: %v", err)
	}
	res, err := runOne(h, echoTask(t, 1, "encrypted"))
	if err != nil || res != "encrypted" {
		t.Fatalf("TLS Run = %v, %v; want encrypted, nil", res, err)
	}
}

func TestNetProviderTLSExpiredCertRejected(t *testing.T) {
	cert, pool := selfSignedCert(t, time.Now().Add(-2*time.Hour), time.Now().Add(-time.Hour))
	opts := testOptions("s")
	opts.TLSConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()

	err = <-startWorker(t, ConnectOptions{Addr: p.Addr(), Secret: "s", TLS: &tls.Config{RootCAs: pool}})
	var certErr x509.CertificateInvalidError
	if !errors.As(err, &certErr) || certErr.Reason != x509.Expired {
		t.Fatalf("worker error = %v, want an expired-certificate rejection", err)
	}
	if got := p.RegisteredWorkers(); got != 0 {
		t.Fatalf("RegisteredWorkers = %d after expired-cert dial, want 0", got)
	}
}

// A worker that plain-TCP dials a TLS interchange must be rejected at the
// handshake, never reaching registration.
func TestNetProviderPlaintextDialOfTLSListenerRejected(t *testing.T) {
	cert, _ := selfSignedCert(t, time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
	opts := testOptions("s")
	opts.TLSConfig = &tls.Config{Certificates: []tls.Certificate{cert}}
	opts.HelloTimeout = 300 * time.Millisecond
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()

	if err := <-startWorker(t, ConnectOptions{Addr: p.Addr(), Secret: "s"}); err == nil {
		t.Fatal("plaintext dial of a TLS listener should fail")
	}
	if got := p.RegisteredWorkers(); got != 0 {
		t.Fatalf("RegisteredWorkers = %d, want 0", got)
	}
}

func TestNetProviderHeartbeatStalenessKillsBlock(t *testing.T) {
	opts := testOptions("s")
	opts.HeartbeatPeriod = 20 * time.Millisecond
	opts.HeartbeatMisses = 3
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()

	// A hand-rolled worker that handshakes and then goes silent: no
	// heartbeats, no responses.
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fc := provider.NewFrameConn(conn, conn, conn)
	if _, err := provider.DialWorkerSession(fc, provider.Hello{ID: "silent", Secret: "s", Capacity: 1}); err != nil {
		t.Fatalf("handshake: %v", err)
	}

	h, err := p.Launch(1, 1)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	waitFor(t, "heartbeat staleness to mark the block dead", func() bool { return !h.Alive() })
	if _, err := runOne(h, echoTask(t, 1, "x")); !errors.Is(err, provider.ErrNotStarted) {
		t.Fatalf("dispatch to a stale block = %v, want ErrNotStarted", err)
	}
	if got := p.Status()[1].State; got != provider.BlockDead {
		t.Fatalf("status = %s, want dead", got)
	}
}

func TestNetWorkerDrainDeregisters(t *testing.T) {
	opts := testOptions("s")
	drain := make(chan struct{})
	var p *NetProvider
	opts.Spawn = func(addr string, _ int) error {
		startWorker(t, ConnectOptions{Addr: addr, Secret: "s", ID: "draining", Drain: drain})
		return nil
	}
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()
	h, err := p.Launch(1, 1)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	close(drain)
	waitFor(t, "the worker's bye to end the session", func() bool { return !h.Alive() })
	if got := p.Status()[1].State; got != provider.BlockClosed {
		t.Fatalf("status after worker drain = %s, want closed (graceful deregistration)", got)
	}
}

func TestNetWorkerReconnects(t *testing.T) {
	opts := testOptions("s")
	var p *NetProvider
	opts.Spawn = func(addr string, _ int) error {
		startWorker(t, ConnectOptions{
			Addr: addr, Secret: "s", ID: "phoenix",
			Reconnect: true, ReconnectWait: 10 * time.Millisecond,
		})
		return nil
	}
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()
	h, err := p.Launch(1, 1)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if !p.KillConnection(1) {
		t.Fatal("KillConnection found no live block 1")
	}
	waitFor(t, "the severed block to read as dead", func() bool { return !h.Alive() })
	// The same worker identity dials back in and is adoptable as a new block.
	h2, err := p.Launch(2, 1)
	if err != nil {
		t.Fatalf("Launch after reconnect: %v", err)
	}
	res, err := runOne(h2, echoTask(t, 2, "back"))
	if err != nil || res != "back" {
		t.Fatalf("Run after reconnect = %v, %v; want back, nil", res, err)
	}
}

func TestNetProviderAdoptTimeout(t *testing.T) {
	opts := testOptions("s")
	opts.AdoptTimeout = 150 * time.Millisecond
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()
	if _, err := p.Launch(1, 1); err == nil || !strings.Contains(err.Error(), "no worker registered") {
		t.Fatalf("Launch with no workers = %v, want an adopt-timeout error", err)
	}
}

// Launch must adopt a worker that registers after the wait began (the waiter
// hand-off path, not just the pending-pool path).
func TestNetProviderLaunchAdoptsLateRegistration(t *testing.T) {
	p, err := Listen(testOptions("s"))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()
	go func() {
		time.Sleep(100 * time.Millisecond)
		startWorker(t, ConnectOptions{Addr: p.Addr(), Secret: "s", ID: "late"})
	}()
	h, err := p.Launch(1, 1)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if res, err := runOne(h, echoTask(t, 1, "ok")); err != nil || res != "ok" {
		t.Fatalf("Run = %v, %v; want ok, nil", res, err)
	}
}

func TestNetProviderCancel(t *testing.T) {
	p, err := Listen(testOptions("s"))
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := startWorker(t, ConnectOptions{Addr: p.Addr(), Secret: "s", ID: "w"})
	waitFor(t, "registration", func() bool { return p.RegisteredWorkers() == 1 })
	if err := p.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	// The engine closing the connection reads as EOF on the worker side,
	// which is the drain signal: the worker exits cleanly.
	if err := <-done; err != nil {
		t.Fatalf("worker exit after engine close = %v, want a clean drain", err)
	}
	if _, err := p.Launch(1, 1); err == nil {
		t.Fatal("Launch after Cancel should fail")
	}
	if err := p.Cancel(); err != nil {
		t.Fatalf("second Cancel: %v", err)
	}
}

// TestDrainRacingReconnect severs a reconnecting worker's session and then
// fires its drain signal while two Launch calls compete for the fresh
// registration. Whatever interleaving the scheduler picks, the invariants
// hold: one worker identity is adopted by at most one block, the worker
// process exits exactly once and cleanly, and no ghost registration survives.
func TestDrainRacingReconnect(t *testing.T) {
	for iter := 0; iter < 6; iter++ {
		opts := testOptions("s")
		opts.AdoptTimeout = 300 * time.Millisecond
		p, err := Listen(opts)
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		drain := make(chan struct{})
		done := startWorker(t, ConnectOptions{
			Addr: p.Addr(), Secret: "s", ID: "racer",
			Reconnect: true, ReconnectWait: 2 * time.Millisecond,
			Drain: drain,
		})
		h, err := p.Launch(1, 1)
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		if res, err := runOne(h, echoTask(t, 1, "pre")); err != nil || res != "pre" {
			t.Fatalf("Run before the race = %v, %v; want pre, nil", res, err)
		}

		if !p.KillConnection(1) {
			t.Fatal("KillConnection found no live block 1")
		}
		waitFor(t, "the severed worker to re-register", func() bool {
			return p.RegisteredWorkers() == 1
		})

		// The race: two adoptions compete for one registration while the
		// worker is told to drain.
		adopted := make(chan provider.ManagerHandle, 2)
		for b := 2; b <= 3; b++ {
			go func(block int) {
				nh, err := p.Launch(block, 1)
				if err != nil {
					adopted <- nil
					return
				}
				adopted <- nh
			}(b)
		}
		close(drain)

		var handles []provider.ManagerHandle
		for i := 0; i < 2; i++ {
			if nh := <-adopted; nh != nil {
				handles = append(handles, nh)
			}
		}
		if len(handles) > 1 {
			t.Fatalf("iter %d: one worker registration adopted by %d blocks", iter, len(handles))
		}
		// Exactly one clean exit: RunWorker must return nil (drain wins over
		// the reconnect loop) no matter which side observed the drain first.
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("iter %d: worker exit = %v, want a clean drain", iter, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iter %d: worker never exited after drain", iter)
		}
		// The drained session must fully deregister: any adopted block reads
		// dead, and no pending registration lingers for a later Launch to
		// adopt as a ghost.
		for _, nh := range handles {
			got := nh
			waitFor(t, "the adopted block to observe the drain", func() bool { return !got.Alive() })
		}
		waitFor(t, "pending registrations to clear", func() bool {
			return p.RegisteredWorkers() == 0
		})
		p.Cancel()
	}
}

// runOne dispatches one task on h and waits for its outcome.
func runOne(h provider.ManagerHandle, t *provider.Task) (any, error) {
	type outcome struct {
		res any
		err error
	}
	ch := make(chan outcome, 1)
	t.Done = func(res any, err error) { ch <- outcome{res, err} }
	h.Dispatch([]*provider.Task{t})
	o := <-ch
	return o.res, o.err
}
