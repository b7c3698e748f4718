package fabric

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestNetProviderWarmPool: with a warm pool, Launch adopts a pre-registered
// spare instantly and the pool refills in the background.
func TestNetProviderWarmPool(t *testing.T) {
	opts := testOptions("s")
	opts.WarmPool = 1
	var (
		spawnMu sync.Mutex
		spawned []int
	)
	opts.Spawn = func(addr string, block int) error {
		spawnMu.Lock()
		spawned = append(spawned, block)
		spawnMu.Unlock()
		startWorker(t, ConnectOptions{Addr: addr, Secret: "s", ID: fmt.Sprintf("w%d", block)})
		return nil
	}
	p, err := Listen(opts)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer p.Cancel()

	// The pool pre-spawns before any Launch: spawn hook called with a
	// negative block id, worker registers as pending.
	waitFor(t, "the warm spare to register", func() bool { return p.RegisteredWorkers() == 1 })
	spawnMu.Lock()
	if len(spawned) != 1 || spawned[0] >= 0 {
		spawnMu.Unlock()
		t.Fatalf("warm spawn calls = %v, want one negative block id", spawned)
	}
	spawnMu.Unlock()

	// Launch adopts the spare without waiting for a fresh worker to dial.
	start := time.Now()
	h, err := p.Launch(1, 1)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("warm launch took %v — it did not use the spare", took)
	}
	if res, err := runOne(h, echoTask(t, 1, "warm")); err != nil || res != "warm" {
		t.Fatalf("Run = %v, %v; want warm, nil", res, err)
	}
	// The pool refills after the adoption.
	waitFor(t, "the pool to refill", func() bool {
		spawnMu.Lock()
		defer spawnMu.Unlock()
		return len(spawned) >= 2
	})
}
