package provider

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LocalProvider grants in-process blocks immediately — the paper's
// single-machine and in-allocation deployments. Tasks execute as plain
// function calls, at most the block's slots at a time.
type LocalProvider struct {
	// Latency optionally models block startup cost (worker pool launch).
	Latency time.Duration

	granted atomic.Int64

	mu     sync.Mutex
	blocks map[int]*localHandle
}

// Name implements ExecutionProvider.
func (p *LocalProvider) Name() string { return "local" }

// Launch implements ExecutionProvider.
func (p *LocalProvider) Launch(block, slots int) (ManagerHandle, error) {
	if p.Latency > 0 {
		time.Sleep(p.Latency)
	}
	slots = max(slots, 1)
	h := &localHandle{provider: p, block: block, work: make(chan *Task, slots)}
	h.pool = slotPool{slots: slots, start: func(t *Task) { h.work <- t }}
	for range slots {
		go h.slot()
	}
	p.mu.Lock()
	if p.blocks == nil {
		p.blocks = map[int]*localHandle{}
	}
	p.blocks[block] = h
	p.mu.Unlock()
	p.granted.Add(1)
	metBlocksLaunched.With("local").Inc()
	return h, nil
}

// Granted reports currently held blocks.
func (p *LocalProvider) Granted() int { return int(p.granted.Load()) }

// Status implements ExecutionProvider.
func (p *LocalProvider) Status() map[int]BlockStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]BlockStatus, len(p.blocks))
	for id, h := range p.blocks {
		st := BlockRunning
		if h.closed.Load() {
			st = BlockClosed
		}
		out[id] = BlockStatus{State: st, Detail: "in-process"}
	}
	return out
}

// Cancel implements ExecutionProvider.
func (p *LocalProvider) Cancel() error {
	p.mu.Lock()
	blocks := make([]*localHandle, 0, len(p.blocks))
	for _, h := range p.blocks {
		blocks = append(blocks, h)
	}
	p.mu.Unlock()
	for _, h := range blocks {
		h.Close()
	}
	return nil
}

// localHandle executes tasks in the engine process on one long-lived
// goroutine per slot.
type localHandle struct {
	provider *LocalProvider
	block    int
	pool     slotPool
	work     chan *Task // a started task, handed to an idle slot goroutine
	closed   atomic.Bool
}

// Block implements ManagerHandle.
func (h *localHandle) Block() int { return h.block }

// Slots implements ManagerHandle.
func (h *localHandle) Slots() int { return h.pool.slots }

// Dispatch implements ManagerHandle: queue the tasks on the slot pool. A
// closed block refuses them as never started.
func (h *localHandle) Dispatch(batch []*Task) {
	if refused := h.pool.dispatch(batch); len(refused) > 0 {
		failAll(refused, h.notStarted())
	}
}

// slot is one slot's goroutine: it executes each task it is handed as a
// guarded in-process call, keeping the slot for the next queued task until
// the queue is empty, and exits when the block closes. Closing the block
// does not interrupt a running task: it completes with its own result.
func (h *localHandle) slot() {
	for t := range h.work {
		for t != nil {
			res, err := guard(t.Fn)
			done := t.Done
			t = h.pool.next()
			done(res, err)
		}
	}
}

func (h *localHandle) notStarted() error {
	return fmt.Errorf("local block %d closed: %w", h.block, ErrNotStarted)
}

// Alive implements ManagerHandle.
func (h *localHandle) Alive() bool { return !h.closed.Load() }

// Close implements ManagerHandle.
func (h *localHandle) Close() error {
	if h.closed.CompareAndSwap(false, true) {
		h.provider.granted.Add(-1)
		failAll(h.pool.close(), h.notStarted())
		close(h.work) // the pool starts nothing more once closed
	}
	return nil
}
