package parsl

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/provider"
)

// flakyProvider's first block dies under its tasks (its third task fails
// with ErrWorkerLost); replacement blocks are healthy. It
// exercises the executor's worker-lost fast path end to end: re-dispatch,
// block failure, reap, re-launch.
type flakyProvider struct {
	mu       sync.Mutex
	launches int
	blocks   map[int]*flakyHandle
}

func (p *flakyProvider) Name() string { return "flaky" }

func (p *flakyProvider) Launch(block, _ int) (provider.ManagerHandle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.launches++
	h := &flakyHandle{block: block, dieAfter: -1}
	if p.launches == 1 {
		h.dieAfter = 2 // first block survives two tasks, then dies
	}
	if p.blocks == nil {
		p.blocks = map[int]*flakyHandle{}
	}
	p.blocks[block] = h
	return h, nil
}

func (p *flakyProvider) Status() map[int]provider.BlockStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[int]provider.BlockStatus{}
	for id, h := range p.blocks {
		st := provider.BlockRunning
		if h.dead.Load() {
			st = provider.BlockDead
		}
		out[id] = provider.BlockStatus{State: st}
	}
	return out
}

func (p *flakyProvider) Cancel() error { return nil }

func (p *flakyProvider) launchCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.launches
}

type flakyHandle struct {
	block    int
	ran      atomic.Int64
	dieAfter int64
	dead     atomic.Bool
}

func (h *flakyHandle) Block() int { return h.block }

func (h *flakyHandle) Slots() int { return 2 }

func (h *flakyHandle) Dispatch(batch []*provider.Task) {
	for _, t := range batch {
		switch {
		case h.dead.Load():
			t.Done(nil, fmt.Errorf("block %d is dead: %w", h.block, provider.ErrNotStarted))
		case h.dieAfter >= 0 && h.ran.Add(1) > h.dieAfter:
			h.dead.Store(true)
			t.Done(nil, fmt.Errorf("block %d crashed mid-task: %w", h.block, provider.ErrWorkerLost))
		default:
			go func() { t.Done(t.Fn()) }()
		}
	}
}

func (h *flakyHandle) Alive() bool  { return !h.dead.Load() }
func (h *flakyHandle) Close() error { return nil }

func TestHTEXWorkerLostRedispatch(t *testing.T) {
	prov := &flakyProvider{}
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label:           "htex",
		Provider:        prov,
		WorkersPerNode:  2,
		MaxBlocks:       2,
		MinBlocks:       1,
		InitBlocks:      1,
		HeartbeatPeriod: 20 * time.Millisecond,
	})
	d := loadTest(t, Config{Executors: []Executor{htex}})
	app := NewGoApp("work", func(args Args) (any, error) { return args["i"], nil })
	var futs []*AppFuture
	for i := 0; i < 20; i++ {
		futs = append(futs, d.Submit(app, Args{"i": i}, CallOpts{}))
	}
	if err := WaitAll(context.Background(), futs...); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		res, err, _ := f.TryResult()
		if err != nil || res != i {
			t.Fatalf("task %d: res=%v err=%v", i, res, err)
		}
	}
	if got := htex.Redispatched(); got < 1 {
		t.Errorf("redispatched = %d, want >= 1", got)
	}
	if got := prov.launchCount(); got < 2 {
		t.Errorf("launches = %d, want a replacement block", got)
	}
	st := htex.Stats()
	if st.Provider != "flaky" {
		t.Errorf("stats provider = %q", st.Provider)
	}
	if len(st.Blocks) < 2 {
		t.Errorf("stats blocks = %+v, want the dead and replacement block", st.Blocks)
	}
	if st.ManagersLost < 1 {
		t.Errorf("managers lost = %d, want >= 1", st.ManagersLost)
	}
}

func TestHTEXStatsReportsProviderBlocks(t *testing.T) {
	htex := NewHighThroughputExecutor(HTEXConfig{
		Label: "htex", WorkersPerNode: 1, MaxBlocks: 1, InitBlocks: 1,
	})
	if err := htex.Start(); err != nil {
		t.Fatal(err)
	}
	defer htex.Shutdown()
	st := htex.Stats()
	if st.Provider != "local" {
		t.Fatalf("provider = %q, want local", st.Provider)
	}
	if len(st.Blocks) != 1 || st.Blocks[0].State != string(provider.BlockRunning) {
		t.Fatalf("blocks = %+v", st.Blocks)
	}
}

func TestConfigProviderSelection(t *testing.T) {
	if _, err := ParseConfig([]byte("executor: htex\nprovider: bogus\n")); err == nil {
		t.Error("bogus provider accepted")
	}
	if _, err := ParseConfig([]byte("executor: thread-pool\nprovider: process\n")); err == nil {
		t.Error("process provider accepted for thread-pool executor")
	}
	spec, err := ParseConfig([]byte("executor: htex\nprovider: sim\nnodes: 2\nworkers-per-node: 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	prov, err := spec.BuildProvider(spec.Provider)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Name() != "sim" {
		t.Fatalf("provider = %q", prov.Name())
	}
	prov.Cancel()

	spec, err = ParseConfig([]byte("executor: htex\nprovider: process\nworker-cmd: /bin/worker -v\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.WorkerCmd != "/bin/worker -v" {
		t.Fatalf("worker-cmd = %q", spec.WorkerCmd)
	}
	prov, err = spec.BuildProvider(spec.Provider)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Name() != "process" {
		t.Fatalf("provider = %q", prov.Name())
	}
	prov.Cancel()
}

func TestBuildMultiProviders(t *testing.T) {
	spec := DefaultConfigSpec()
	spec.Executor = "htex"
	cfg, labels, err := spec.BuildMulti([]string{"local", "sim"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Executors) != 2 {
		t.Fatalf("executors = %d", len(cfg.Executors))
	}
	if labels["local"] != "htex-local" || labels["sim"] != "htex-sim" {
		t.Fatalf("labels = %v", labels)
	}
	if cfg.Executors[0].Label() != "htex-local" {
		t.Fatalf("default executor = %q, want the first provider", cfg.Executors[0].Label())
	}
	if _, _, err := spec.BuildMulti([]string{"local", "local"}); err == nil {
		t.Error("duplicate provider accepted")
	}
	if _, _, err := spec.BuildMulti(nil); err == nil {
		t.Error("empty provider list accepted")
	}
}

// TestNetWarmPoolConfigSpawnsWithListenAddr builds `provider: net` with a
// warm pool. The pool spawns its spares before fabric.Listen returns, so the
// spawn hook must take the listen address as its argument: reading it from
// the provider the caller has not assigned yet raced (and could dereference
// nil). Run it under -race.
func TestNetWarmPoolConfigSpawnsWithListenAddr(t *testing.T) {
	dir := t.TempDir()
	argvLog := filepath.Join(dir, "spawned")
	// A stand-in worker that records its argv and exits: the test checks the
	// spawns, not a registration.
	worker := filepath.Join(dir, "worker.sh")
	if err := os.WriteFile(worker, []byte("#!/bin/sh\necho \"$@\" >> "+argvLog+"\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseConfig([]byte("executor: htex\nprovider: net\nwarm-pool: 2\nworker-cmd: " + worker + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	prov, err := spec.BuildProvider("net")
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Cancel()
	addr := prov.(*fabric.NetProvider).Addr()
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, _ := os.ReadFile(argvLog)
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(data) > 0 && len(lines) == 2 {
			for _, l := range lines {
				if !strings.Contains(l, "-connect "+addr+" -id warm-") {
					t.Errorf("spare spawned with %q, want -connect %s -id warm-N", l, addr)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm pool spawned %q, want two spares", data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
