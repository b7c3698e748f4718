package provider

import (
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestProcessProviderWarmPool: spares are pre-forked before any Launch,
// Launch consumes one instantly, and the pool refills in the background.
func TestProcessProviderWarmPool(t *testing.T) {
	opts := selfWorker(t)
	opts.WarmPool = 2
	p := NewProcessProvider(opts)
	defer p.Cancel()

	waitForWarm(t, p, 2)
	start := time.Now()
	// Spares are forked before any Launch, at the worker's default capacity.
	h, err := p.Launch(0, DefaultCapacity())
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("warm launch took %v — it did not use a spare", took)
	}
	spec, err := NewEchoSpec("warm")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := runOne(h, &Task{ID: 1, Remote: spec}); err != nil || res != "warm" {
		t.Fatalf("Run on a warm worker = %v, %v", res, err)
	}
	waitForWarm(t, p, 2) // refilled after the adoption
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func waitForWarm(t *testing.T, p *ProcessProvider, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if p.WarmWorkers() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("warm pool never reached %d (at %d)", want, p.WarmWorkers())
}

// TestProcessProviderMidBatchKill pins the batch-boundary failure contract:
// killing a worker that has acknowledged some tasks and holds others in
// flight must fail exactly the unacknowledged ones with ErrWorkerLost —
// acknowledged results stay delivered, each task resolves exactly once.
// (The HTEX layer turns those ErrWorkerLost failures into redispatch; the
// conformance corpus asserts the end-to-end exactly-once property.)
func TestProcessProviderMidBatchKill(t *testing.T) {
	p := NewProcessProvider(selfWorker(t))
	defer p.Cancel()
	// Enough slots that every unacked task below has started when the kill
	// lands, so each must fail as lost rather than never started.
	h, err := p.Launch(4, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Acked tasks: results in hand before the kill, batched over the same
	// session the kill will sever.
	acked, err := NewEchoSpec("acked")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := runOne(h, &Task{ID: i, Remote: acked}); err != nil || res != "acked" {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pre-kill batch failed: %v", err)
	}

	// Unacked tasks: in flight when the worker dies. Every one must resolve
	// exactly once, with ErrWorkerLost.
	slow, err := NewSleepSpec(30*time.Second, "never")
	if err != nil {
		t.Fatal(err)
	}
	const inflight = 8
	lost := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, err := runOne(h, &Task{ID: 100 + i, Remote: slow})
			lost <- err
		}(i)
	}
	pid := waitForPid(t, p, 4)
	time.Sleep(100 * time.Millisecond) // let the batch reach the worker
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inflight; i++ {
		select {
		case err := <-lost:
			if !errors.Is(err, ErrWorkerLost) {
				t.Fatalf("in-flight task error = %v, want ErrWorkerLost", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("task %d of %d never resolved after the kill", i+1, inflight)
		}
	}
	// No ghost resolutions: the channel drained exactly inflight sends.
	select {
	case err := <-lost:
		t.Fatalf("a task resolved twice: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
}
