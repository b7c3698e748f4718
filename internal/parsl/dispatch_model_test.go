package parsl

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/provider"
)

// modelProvider launches modelHandles: blocks that hold what HTEX dispatches
// and complete nothing on their own. The test goroutine plays the workers,
// completing started tasks in a seeded random order and now and then killing
// a block, while checking the dispatch contract at every step.
type modelProvider struct {
	window int // the outstanding bound every block must respect

	mu       sync.Mutex
	blocks   []*modelHandle
	refused  int // tasks dispatched to an already-dead block
	problems []string
}

// modelTask is one task a model block holds, numbered in dispatch order.
type modelTask struct {
	t   *provider.Task
	idx int
}

type modelHandle struct {
	p     *modelProvider
	block int
	slots int

	// Guarded by p.mu.
	dead        bool
	dispatched  int // tasks handed this block so far
	completed   int // completions delivered
	outstanding []modelTask
	order       []int // task IDs in dispatch order
}

func (p *modelProvider) Name() string { return "model" }

func (p *modelProvider) Launch(block, slots int) (provider.ManagerHandle, error) {
	h := &modelHandle{p: p, block: block, slots: slots}
	p.mu.Lock()
	p.blocks = append(p.blocks, h)
	p.mu.Unlock()
	return h, nil
}

func (p *modelProvider) Status() map[int]provider.BlockStatus { return nil }
func (p *modelProvider) Cancel() error                        { return nil }

func (h *modelHandle) Block() int { return h.block }
func (h *modelHandle) Slots() int { return h.slots }
func (h *modelHandle) Close() error {
	h.p.mu.Lock()
	h.dead = true
	h.p.mu.Unlock()
	return nil
}

func (h *modelHandle) Alive() bool {
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	return !h.dead
}

func (h *modelHandle) Dispatch(batch []*provider.Task) {
	h.p.mu.Lock()
	if h.dead {
		h.p.refused += len(batch)
		h.p.mu.Unlock()
		for _, t := range batch {
			t.Done(nil, fmt.Errorf("model block %d is dead: %w", h.block, provider.ErrNotStarted))
		}
		return
	}
	for _, t := range batch {
		h.outstanding = append(h.outstanding, modelTask{t, h.dispatched})
		h.order = append(h.order, t.ID)
		h.dispatched++
	}
	if n := len(h.outstanding); n > h.p.window {
		h.p.problems = append(h.p.problems, fmt.Sprintf("block %d holds %d tasks, window is %d", h.block, n, h.p.window))
	}
	h.p.mu.Unlock()
}

// started reports whether the i-th outstanding task had started: the worker
// starts tasks in dispatch order and frees a slot only by completing, so task
// idx runs iff idx < slots + completions.
func (h *modelHandle) started(i int) bool { return h.outstanding[i].idx < h.slots+h.completed }

// runDispatchModel drives n tasks through an HTEX over model blocks and
// returns the executor for the caller's final checks. Every completion the
// model delivers is tallied per task: lost[id] counts deaths after the task
// started, fresh[id] deaths before it started.
func runDispatchModel(t *testing.T, seed int64, prefetch int, kills bool, n int) (htex *HighThroughputExecutor, prov *modelProvider, results map[int]error, lost, fresh map[int]int) {
	t.Helper()
	const slots = 2
	// The documented bound: slots plus the prefetch, which defaults (0) to
	// one per slot and is off when negative.
	window := slots + prefetch
	switch {
	case prefetch == 0:
		window = 2 * slots
	case prefetch < 0:
		window = slots
	}
	prov = &modelProvider{window: window}
	maxBlocks := 1
	if kills {
		maxBlocks = 2
	}
	htex = NewHighThroughputExecutor(HTEXConfig{
		Label: "model", Provider: prov,
		WorkersPerNode: slots, Prefetch: prefetch,
		MaxBlocks: maxBlocks, MinBlocks: 1, InitBlocks: 1,
		// Deaths are reported by the blocks; a slow heartbeat on a loaded
		// machine must not read as a silent block, whose tasks are charged.
		HeartbeatPeriod:    2 * time.Millisecond,
		HeartbeatThreshold: time.Minute,
		MaxRedispatch:      1,
	})

	var mu sync.Mutex
	results = map[int]error{}
	fired := map[int]int{}
	for id := 0; id < n; id++ {
		htex.Submit(&Task{ID: id, Fn: func() (any, error) { return id, nil }}, func(res any, err error) {
			mu.Lock()
			defer mu.Unlock()
			fired[id]++
			if fired[id] > 1 {
				t.Errorf("task %d completed %d times", id, fired[id])
			}
			if err == nil && res != id {
				err = fmt.Errorf("task %d returned %v", id, res)
			}
			results[id] = err
		})
	}
	if err := htex.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { htex.Shutdown() })

	rng := rand.New(rand.NewSource(seed))
	lost, fresh = map[int]int{}, map[int]int{}
	deadline := time.Now().Add(20 * time.Second)
	for killsLeft := 8; ; {
		mu.Lock()
		finished := len(results) == n
		mu.Unlock()
		if finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: %d of %d tasks completed before the deadline", seed, len(results), n)
		}

		prov.mu.Lock()
		var live []*modelHandle
		for _, h := range prov.blocks {
			if !h.dead && len(h.outstanding) > 0 {
				live = append(live, h)
			}
		}
		if len(live) == 0 {
			prov.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
			continue
		}
		h := live[rng.Intn(len(live))]
		type delivery struct {
			t   *provider.Task
			res any
			err error
		}
		var out []delivery
		if kills && killsLeft > 0 && rng.Intn(8) == 0 {
			killsLeft--
			h.dead = true
			for i, mt := range h.outstanding {
				if h.started(i) {
					lost[mt.t.ID]++
					out = append(out, delivery{mt.t, nil, fmt.Errorf("model block %d died: %w", h.block, provider.ErrWorkerLost)})
				} else {
					fresh[mt.t.ID]++
					out = append(out, delivery{mt.t, nil, fmt.Errorf("model block %d died: %w", h.block, provider.ErrNotStarted)})
				}
			}
			h.outstanding = nil
		} else {
			var startedIdx []int
			for i := range h.outstanding {
				if h.started(i) {
					startedIdx = append(startedIdx, i)
				}
			}
			i := startedIdx[rng.Intn(len(startedIdx))]
			mt := h.outstanding[i]
			h.outstanding = append(h.outstanding[:i], h.outstanding[i+1:]...)
			h.completed++
			res, err := mt.t.Fn()
			out = append(out, delivery{mt.t, res, err})
		}
		prov.mu.Unlock()
		for _, d := range out {
			d.t.Done(d.res, d.err)
		}
	}
	return htex, prov, results, lost, fresh
}

// TestDispatchModel is the seeded model test of the asynchronous dispatch
// contract: a block never holds more than slots + prefetch tasks (slots
// alone with prefetch disabled), blocks receive tasks in FIFO order, every
// done fires exactly once, and only deaths after a task started charge its
// redispatch budget — a never-started loss is free.
func TestDispatchModel(t *testing.T) {
	const n = 48
	for _, prefetch := range []int{0, -1, 3} {
		for _, kills := range []bool{false, true} {
			// Deaths across the seeds, so a vacuous run (no death ever hit a
			// started or a queued task) cannot pass.
			lostTotal, freshTotal := 0, 0
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("prefetch=%d/kills=%v/seed=%d", prefetch, kills, seed)
				t.Run(name, func(t *testing.T) {
					htex, prov, results, lost, fresh := runDispatchModel(t, seed, prefetch, kills, n)
					htex.Shutdown()

					prov.mu.Lock()
					defer prov.mu.Unlock()
					for _, p := range prov.problems {
						t.Error(p)
					}
					if !kills {
						// One block, no deaths: it must see the submission order.
						for i, id := range prov.blocks[0].order {
							if id != i {
								t.Fatalf("dispatch order %v, want FIFO", prov.blocks[0].order)
							}
						}
					}
					// Dispatches refused by a dead block are free requeues too.
					requeued := prov.refused
					for _, c := range fresh {
						requeued += c
					}
					charged, poisoned := 0, 0
					for id := 0; id < n; id++ {
						err := results[id]
						switch {
						case lost[id] > 1:
							poisoned++
							if !errors.Is(err, ErrPoisonTask) {
								t.Errorf("task %d died under 2 blocks: err = %v, want ErrPoisonTask", id, err)
							}
						case err != nil:
							t.Errorf("task %d (lost %d, never started %d): %v", id, lost[id], fresh[id], err)
						}
						if lost[id] > 0 {
							charged++
						}
						lostTotal += lost[id]
						freshTotal += fresh[id]
					}
					st := htex.Stats()
					if st.TasksRedispatched != int64(charged) {
						t.Errorf("redispatched = %d, want %d (one per task that died started)", st.TasksRedispatched, charged)
					}
					if st.TasksRequeued != int64(requeued) {
						t.Errorf("requeued = %d, want %d (one per never-started loss)", st.TasksRequeued, requeued)
					}
					if st.TasksQuarantined != int64(poisoned) {
						t.Errorf("quarantined = %d, want %d", st.TasksQuarantined, poisoned)
					}
				})
			}
			if kills && (lostTotal == 0 || (prefetch >= 0 && freshTotal == 0)) {
				t.Errorf("prefetch=%d: deaths hit %d started and %d queued tasks; the model must exercise both",
					prefetch, lostTotal, freshTotal)
			}
		}
	}
}
