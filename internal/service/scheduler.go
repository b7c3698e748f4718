package service

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
)

// Priority bounds for client-supplied queue priorities. Values outside the
// range are clamped at admission: priority orders runs only within one
// tenant's queue, while cross-tenant capacity is governed by fair-share
// weights — so no client value, however large, can starve another tenant.
const (
	MinPriority = -100
	MaxPriority = 100
)

// ClampPriority clamps a client-supplied priority into
// [MinPriority, MaxPriority].
func ClampPriority(p int) int {
	if p > MaxPriority {
		return MaxPriority
	}
	if p < MinPriority {
		return MinPriority
	}
	return p
}

// TenantLimits is the scheduler-relevant slice of one tenant's policy.
type TenantLimits struct {
	// Weight is the fair-share weight: a tenant with weight w dequeues w
	// runs per round-robin cycle while it has queued work (<= 0 selects 1).
	Weight int
	// MaxQueued bounds the tenant's queued runs (<= 0 = unlimited).
	MaxQueued int
	// MaxRunning bounds the tenant's concurrently executing runs
	// (<= 0 = unlimited); a capped tenant's queue is skipped, not blocking.
	MaxRunning int
}

func (l TenantLimits) weight() int {
	if l.Weight <= 0 {
		return 1
	}
	return l.Weight
}

// Scheduler runs queued jobs on a bounded pool of workers, fairly across
// tenants. Each tenant has its own priority+FIFO sub-queue; workers drain the
// sub-queues by weighted round-robin — a tenant with weight w dequeues up to
// w jobs per cycle while it has eligible work — so one tenant's backlog (or
// inflated priorities) cannot starve another's. Per-tenant queue-depth and
// concurrency caps are enforced here alongside the global depth cap. Queued
// jobs can be removed, running jobs can be signaled through their context,
// and Close drains the pool gracefully.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond
	// limits resolves a tenant's fair-share policy at enqueue/dequeue time
	// (nil = every tenant weight 1, uncapped).
	limits  func(tenant string) TenantLimits
	tenants map[string]*tenantQueue
	// ring holds tenants with queued jobs in weighted round-robin order.
	ring   []*tenantQueue
	cursor int

	byID      map[string]*schedJob // queued jobs, for cancel + duplicates
	running   map[string]context.CancelFunc
	runningBy map[string]int // tenant → running count
	seq       int64
	depth     int // global queued cap; <= 0 unbounded
	closed    bool
	exec      func(ctx context.Context, id string)
	wg        sync.WaitGroup
}

type schedJob struct {
	id       string
	tenant   string
	priority int
	seq      int64
	canceled bool
}

// tenantQueue is one tenant's sub-queue plus its round-robin state.
type tenantQueue struct {
	name string
	heap jobHeap
	// queued counts live (un-canceled) entries; canceled entries stay in the
	// heap and are skipped lazily when popped.
	queued int
	// credit is the tenant's remaining dequeues this round-robin cycle,
	// recharged to its weight when exhausted.
	credit int
	inRing bool
}

// pop removes and returns the tenant's highest-priority live job (nil when
// only canceled entries remain).
func (tq *tenantQueue) pop() *schedJob {
	for tq.heap.Len() > 0 {
		j := heap.Pop(&tq.heap).(*schedJob)
		if j.canceled {
			continue
		}
		tq.queued--
		return j
	}
	return nil
}

// jobHeap orders by priority (higher first), then submission order.
type jobHeap []*schedJob

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*schedJob)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// NewScheduler starts workers goroutines that call exec for each dequeued
// job. depth bounds the number of queued (not yet running) jobs globally;
// depth <= 0 means unbounded. limits resolves per-tenant fair-share policy
// (nil = every tenant weight 1, uncapped). exec receives a per-job context
// canceled by Cancel.
func NewScheduler(workers, depth int, limits func(tenant string) TenantLimits, exec func(ctx context.Context, id string)) *Scheduler {
	if workers <= 0 {
		workers = 1
	}
	s := &Scheduler{
		limits:    limits,
		tenants:   map[string]*tenantQueue{},
		byID:      map[string]*schedJob{},
		running:   map[string]context.CancelFunc{},
		runningBy: map[string]int{},
		depth:     depth,
		exec:      exec,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Scheduler) limitsFor(tenant string) TenantLimits {
	if s.limits == nil {
		return TenantLimits{}
	}
	return s.limits(tenant)
}

// Enqueue adds a job to its tenant's sub-queue. It fails with ErrDraining
// after Close, ErrDuplicateRun when the id is already queued or running,
// ErrQueueFull at the global depth cap, and ErrQuotaExceeded at the tenant's
// own queue-depth cap (the per-tenant backpressure signal — hitting it never
// consumes global capacity another tenant could have used).
func (s *Scheduler) Enqueue(id, tenant string, priority int) error {
	return s.enqueue(id, tenant, priority, false)
}

// EnqueueRestored admits a job recovered from the persistence journal,
// bypassing the depth and quota caps: backpressure protects against new
// load, but the pre-crash service had already accepted these runs and
// failing them on restart would break the durability contract.
func (s *Scheduler) EnqueueRestored(id, tenant string, priority int) error {
	return s.enqueue(id, tenant, priority, true)
}

func (s *Scheduler) enqueue(id, tenant string, priority int, restored bool) error {
	priority = ClampPriority(priority)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrDraining
	}
	// A second enqueue of a live id must fail loudly: the old global heap
	// silently overwrote the queued-map entry while leaving the first heap
	// entry un-canceled, so one id could execute twice.
	if _, ok := s.byID[id]; ok {
		return fmt.Errorf("%w: %s is already queued", ErrDuplicateRun, id)
	}
	if _, ok := s.running[id]; ok {
		return fmt.Errorf("%w: %s is already running", ErrDuplicateRun, id)
	}
	lim := s.limitsFor(tenant)
	tq := s.tenants[tenant]
	if !restored {
		if s.depth > 0 && len(s.byID) >= s.depth {
			return ErrQueueFull
		}
		if lim.MaxQueued > 0 && tq != nil && tq.queued >= lim.MaxQueued {
			return fmt.Errorf("%w: tenant %q is at its queue-depth quota (%d)", ErrQuotaExceeded, tenant, lim.MaxQueued)
		}
	}
	if tq == nil {
		tq = &tenantQueue{name: tenant}
		s.tenants[tenant] = tq
	}
	s.seq++
	j := &schedJob{id: id, tenant: tenant, priority: priority, seq: s.seq}
	heap.Push(&tq.heap, j)
	tq.queued++
	s.byID[id] = j
	if !tq.inRing {
		tq.inRing = true
		tq.credit = lim.weight()
		s.ring = append(s.ring, tq)
	}
	s.cond.Signal()
	return nil
}

// dequeueLocked picks the next job by weighted round-robin across tenant
// sub-queues, honoring per-tenant concurrency caps. It returns nil when no
// tenant has an eligible job. Caller holds s.mu.
func (s *Scheduler) dequeueLocked() *schedJob {
	// Compact the ring: tenants whose sub-queues drained leave it (and
	// release any leftover canceled heap entries); they re-enter with fresh
	// credit on their next enqueue.
	kept := s.ring[:0]
	for i, tq := range s.ring {
		if tq.queued > 0 {
			kept = append(kept, tq)
			continue
		}
		tq.inRing = false
		tq.heap = nil
		if i < s.cursor {
			s.cursor--
		}
	}
	for i := len(kept); i < len(s.ring); i++ {
		s.ring[i] = nil
	}
	s.ring = kept
	if len(s.ring) == 0 {
		return nil
	}
	if s.cursor >= len(s.ring) {
		s.cursor = 0
	}
	for scanned := 0; scanned < len(s.ring); scanned++ {
		tq := s.ring[s.cursor]
		lim := s.limitsFor(tq.name)
		if lim.MaxRunning > 0 && s.runningBy[tq.name] >= lim.MaxRunning {
			// Tenant at its concurrency quota: skip without burning credit so
			// its share resumes intact once a run finishes.
			s.cursor = (s.cursor + 1) % len(s.ring)
			continue
		}
		j := tq.pop()
		if j == nil {
			// Only canceled entries remained; the compact pass above will
			// drop the tenant on the next call.
			tq.queued = 0
			s.cursor = (s.cursor + 1) % len(s.ring)
			continue
		}
		tq.credit--
		if tq.credit <= 0 || tq.queued == 0 {
			tq.credit = lim.weight()
			s.cursor = (s.cursor + 1) % len(s.ring)
		}
		return j
	}
	return nil
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		var j *schedJob
		for {
			if j = s.dequeueLocked(); j != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		if j == nil {
			s.mu.Unlock()
			return
		}
		delete(s.byID, j.id)
		ctx, cancel := context.WithCancel(context.Background())
		s.running[j.id] = cancel
		s.runningBy[j.tenant]++
		s.mu.Unlock()

		s.exec(ctx, j.id)
		cancel()

		s.mu.Lock()
		delete(s.running, j.id)
		if s.runningBy[j.tenant]--; s.runningBy[j.tenant] <= 0 {
			delete(s.runningBy, j.tenant)
		}
		// A completion may unblock a tenant that was at its concurrency cap.
		s.cond.Signal()
	}
}

// CancelOutcome reports what Cancel found.
type CancelOutcome int

const (
	// CancelNotFound means the job is neither queued nor running.
	CancelNotFound CancelOutcome = iota
	// CancelDequeued means the job was removed before any worker ran it.
	CancelDequeued
	// CancelSignaled means the job is running and its context was canceled.
	CancelSignaled
)

// Cancel removes a queued job or cancels a running one's context.
func (s *Scheduler) Cancel(id string) CancelOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.byID[id]; ok {
		j.canceled = true // lazily skipped when popped
		delete(s.byID, id)
		if tq := s.tenants[j.tenant]; tq != nil {
			tq.queued--
		}
		return CancelDequeued
	}
	if cancel, ok := s.running[id]; ok {
		cancel()
		return CancelSignaled
	}
	return CancelNotFound
}

// Depths reports the global queued and running job counts.
func (s *Scheduler) Depths() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID), len(s.running)
}

// TenantDepth is one tenant's live scheduler load.
type TenantDepth struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
}

// TenantDepths reports queued and running counts per tenant (tenants with
// neither are omitted).
func (s *Scheduler) TenantDepths() map[string]TenantDepth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]TenantDepth{}
	for name, tq := range s.tenants {
		if tq.queued > 0 {
			d := out[name]
			d.Queued = tq.queued
			out[name] = d
		}
	}
	for name, n := range s.runningBy {
		d := out[name]
		d.Running = n
		out[name] = d
	}
	return out
}

// Close drains the scheduler: no further Enqueue succeeds, every still-queued
// job is dropped (their sorted IDs are returned so the caller can mark them
// canceled), and in-flight jobs are awaited. If ctx expires first, running
// jobs have their contexts canceled and Close waits for them to return,
// reporting ctx's error.
func (s *Scheduler) Close(ctx context.Context) ([]string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil
	}
	s.closed = true
	var dropped []string
	for id, j := range s.byID {
		j.canceled = true
		dropped = append(dropped, id)
	}
	s.byID = map[string]*schedJob{}
	s.tenants = map[string]*tenantQueue{}
	s.ring = nil
	s.cursor = 0
	s.cond.Broadcast()
	s.mu.Unlock()
	sort.Strings(dropped)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return dropped, nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, cancel := range s.running {
			cancel()
		}
		s.mu.Unlock()
		<-done
		return dropped, ctx.Err()
	}
}
