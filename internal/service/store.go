package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/yamlx"
)

// runSeq is process-global so run IDs — which double as DFK event labels —
// stay unique even when several Services observe one shared DFK.
var runSeq atomic.Int64

// RunState is the lifecycle state of one submitted run.
type RunState int

const (
	// RunQueued means the run is waiting for a scheduler worker.
	RunQueued RunState = iota
	// RunRunning means a worker is executing the run on the DFK.
	RunRunning
	// RunSucceeded means the run finished and produced outputs.
	RunSucceeded
	// RunFailed means execution returned an error.
	RunFailed
	// RunCanceled means the run was canceled (queued or mid-execution).
	RunCanceled
)

// String names the state for the API.
func (s RunState) String() string {
	switch s {
	case RunQueued:
		return "queued"
	case RunRunning:
		return "running"
	case RunSucceeded:
		return "succeeded"
	case RunFailed:
		return "failed"
	case RunCanceled:
		return "canceled"
	}
	return fmt.Sprintf("RunState(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == RunSucceeded || s == RunFailed || s == RunCanceled
}

// MarshalJSON renders the state as its string name.
func (s RunState) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the string name back into a state (the persistence
// journal and API clients round-trip snapshots).
func (s *RunState) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	st, err := ParseRunState(name)
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// ParseRunState maps a state name to its RunState.
func ParseRunState(name string) (RunState, error) {
	for _, s := range []RunState{RunQueued, RunRunning, RunSucceeded, RunFailed, RunCanceled} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown run state %q", name)
}

// bumpRunSeq raises the process-global run-ID sequence to at least n, so IDs
// minted after a journal replay never collide with restored ones.
func bumpRunSeq(n int64) {
	for {
		cur := runSeq.Load()
		if cur >= n || runSeq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// RunSnapshot is an immutable view of one run, safe to hand to API clients.
type RunSnapshot struct {
	ID      string   `json:"id"`
	Name    string   `json:"name,omitempty"`
	State   RunState `json:"state"`
	Class   string   `json:"class"`
	DocHash string   `json:"docHash"`
	// Priority is the effective (clamped) queue priority; it orders runs only
	// within the submitting tenant's sub-queue.
	Priority int        `json:"priority"`
	CacheHit bool       `json:"cacheHit"`
	Created  time.Time  `json:"createdAt"`
	Started  *time.Time `json:"startedAt,omitempty"`
	Finished *time.Time `json:"finishedAt,omitempty"`
	// Outputs is a succeeded run's outputs as canonical JSON (the bytes
	// yamlx.Map.MarshalJSON produces), encoded once when the run finishes and
	// shared read-only by the run store, the result cache and the journal.
	// OutputMap decodes it.
	Outputs json.RawMessage `json:"outputs,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Provider is the execution-provider label the run was pinned to at
	// submission ("" = the service default executor).
	Provider string `json:"provider,omitempty"`
	// Tenant is the authenticated tenant that submitted the run
	// (tenant.DefaultName when the service runs without a tenant registry).
	Tenant string `json:"tenant,omitempty"`
	// ResultCached marks a run whose outputs were served whole from the
	// shared cross-tenant result cache: it finished without executing.
	ResultCached bool `json:"resultCached,omitempty"`
	// Restored marks a run recovered from the persistence journal by a later
	// process — either as history (terminal) or re-enqueued (interrupted).
	Restored bool `json:"restored,omitempty"`
}

// OutputMap decodes Outputs into the engine's value shapes; nil when the run
// has no outputs.
func (s RunSnapshot) OutputMap() *yamlx.Map {
	if len(s.Outputs) == 0 {
		return nil
	}
	v, _ := yamlx.DecodeJSON(s.Outputs)
	m, _ := v.(*yamlx.Map)
	return m
}

type runRecord struct {
	// snap.Outputs of a succeeded run holds the held form of its outputs
	// (runOutputs.held), shared with the result cache; deflated says whether
	// a reader must inflate it.
	snap     RunSnapshot
	deflated bool
	done     chan struct{}
	// work is the run's payload: set by Create or Restore, handed to the
	// worker by Start, dropped by Finish. It stays through the running state
	// because a compaction snapshot journals it for every non-terminal run.
	work *pendingRun
	// prev and next link the records in creation order, so eviction and
	// rollback unlink a run in O(1).
	prev, next *runRecord
}

// RunStore tracks every submitted run through the
// queued → running → succeeded/failed/canceled lifecycle. It is the one
// holder of a run's state: the snapshot, the payload a worker executes (and
// a durable service journals), and the done channel waiters block on. It
// also keeps the per-tenant CPU ledger, charged once per run as it finishes.
// Task-event logs stay in the DFK's per-label index (events are attributed
// by CallOpts.Label == run ID) and are released via the eviction callback.
// Terminal runs beyond the retention cap are evicted oldest-first so a
// long-lived service does not grow without bound; an eviction costs
// O(active runs), never O(retained history).
type RunStore struct {
	mu       sync.Mutex
	runs     map[string]*runRecord
	order    runRecord // sentinel of the creation-order ring; order.next is the oldest run
	retain   int       // max terminal runs kept; <= 0 means unbounded
	terminal int       // current terminal-run count
	onEvict  func(id string)
	// cpu is the per-tenant ledger of whole-run seconds (Finished − Started),
	// in memory only: a restart resets it.
	cpu map[string]float64
}

// NewRunStore returns an empty store retaining at most retain terminal runs
// (retain <= 0 keeps everything).
func NewRunStore(retain int) *RunStore {
	st := &RunStore{runs: map[string]*runRecord{}, retain: retain, cpu: map[string]float64{}}
	st.order.prev, st.order.next = &st.order, &st.order
	return st
}

// SetOnEvict registers fn to be called (under the store lock — it must not
// call back into the store) with the ID of every run evicted by retention,
// so companion per-run state (e.g. the DFK's per-label event index) can be
// released alongside.
func (st *RunStore) SetOnEvict(fn func(id string)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.onEvict = fn
}

// RunMeta is the submission-time identity of a new run.
type RunMeta struct {
	// Name is the client-chosen display name.
	Name string
	// Class is the CWL document class (CommandLineTool, Workflow).
	Class string
	// DocHash is the content hash of the CWL source.
	DocHash string
	// Provider is the pinned execution-provider label ("" = default).
	Provider string
	// Tenant is the authenticated submitting tenant.
	Tenant string
	// Priority is the effective (already clamped) intra-tenant priority.
	Priority int
	// CacheHit marks a parsed-document cache hit.
	CacheHit bool
	// ResultCached marks a run served whole from the shared result cache.
	ResultCached bool
}

// Create registers a new queued run holding work (nil for a run that never
// executes) and returns its snapshot. The generated ID doubles as the DFK
// submission label for event attribution; the sequence is process-global so
// IDs never collide across stores sharing a DFK.
func (st *RunStore) Create(meta RunMeta, work *pendingRun) RunSnapshot {
	id := fmt.Sprintf("run-%06d", runSeq.Add(1))
	st.mu.Lock()
	defer st.mu.Unlock()
	rec := &runRecord{
		snap: RunSnapshot{
			ID:           id,
			Name:         meta.Name,
			State:        RunQueued,
			Class:        meta.Class,
			DocHash:      meta.DocHash,
			Priority:     meta.Priority,
			CacheHit:     meta.CacheHit,
			Provider:     meta.Provider,
			Tenant:       meta.Tenant,
			ResultCached: meta.ResultCached,
			Created:      time.Now(),
		},
		done: make(chan struct{}),
		work: work,
	}
	st.runs[id] = rec
	st.pushLocked(rec)
	return rec.snap
}

// pushLocked appends rec as the newest run. Caller holds st.mu.
func (st *RunStore) pushLocked(rec *runRecord) {
	rec.prev, rec.next = st.order.prev, &st.order
	rec.prev.next, st.order.prev = rec, rec
}

// unlink removes rec from the creation order. Caller holds the store lock.
func (rec *runRecord) unlink() {
	rec.prev.next, rec.next.prev = rec.next, rec.prev
	rec.prev, rec.next = nil, nil
}

// Restore inserts a run recovered from the persistence journal, preserving
// its recorded timestamps. Terminal runs become finished history (their done
// channel is closed, work is not kept, outputs are held as a finish holds
// them); non-terminal runs are registered with work as restartable (the
// caller re-enqueues them). Runs whose ID is already present are skipped.
// Restores happen at startup, so insertion order is journal order — which is
// creation order — keeping List chronological.
func (st *RunStore) Restore(snap RunSnapshot, work *pendingRun) {
	out := packOutputs(snap.Outputs)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.runs[snap.ID]; ok {
		return
	}
	rec := &runRecord{snap: snap, deflated: out.deflated, done: make(chan struct{})}
	rec.snap.Outputs = out.held
	st.runs[snap.ID] = rec
	st.pushLocked(rec)
	if !snap.State.Terminal() {
		rec.work = work
	} else {
		close(rec.done)
		st.terminal++
		st.pruneLocked()
	}
}

// Delete removes a run record entirely (used to roll back a submission the
// scheduler rejected).
func (st *RunStore) Delete(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.runs[id]
	if !ok {
		return
	}
	delete(st.runs, id)
	rec.unlink()
}

// Get returns the current snapshot of a run.
func (st *RunStore) Get(id string) (RunSnapshot, bool) {
	st.mu.Lock()
	rec, ok := st.runs[id]
	if !ok {
		st.mu.Unlock()
		return RunSnapshot{}, false
	}
	snap, deflated := rec.snap, rec.deflated
	st.mu.Unlock()
	snap.Outputs = heldJSON(snap.Outputs, deflated)
	return snap, true
}

// List returns snapshots of every retained run, oldest first.
func (st *RunStore) List() []RunSnapshot {
	st.mu.Lock()
	out := make([]RunSnapshot, 0, len(st.runs))
	var packed []int // indexes into out of deflated outputs
	for rec := st.order.next; rec != &st.order; rec = rec.next {
		if rec.deflated {
			packed = append(packed, len(out))
		}
		out = append(out, rec.snap)
	}
	st.mu.Unlock()
	for _, i := range packed {
		out[i].Outputs = inflate(out[i].Outputs)
	}
	return out
}

// Start moves a queued run that holds work to running and returns its
// running snapshot with the work to execute. It reports false, changing
// nothing, when the run is unknown, has no work, or is no longer queued
// (e.g. canceled before a worker picked it up).
func (st *RunStore) Start(id string) (RunSnapshot, *pendingRun, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.runs[id]
	if !ok || rec.snap.State != RunQueued || rec.work == nil {
		return RunSnapshot{}, nil, false
	}
	now := time.Now()
	rec.snap.State = RunRunning
	rec.snap.Started = &now
	return rec.snap, rec.work, true
}

// Finish moves a run to its terminal state: canceled when canceled is set,
// failed when runErr is non-nil, succeeded otherwise, keeping out.held as a
// succeeded run's outputs. It drops the run's work and charges a run that
// started its Finished − Started seconds on the tenant's CPU ledger. It is a
// no-op on runs already terminal, so a run is charged once. It returns
// release, which closes the run's done channel and so answers every Wait:
// the caller journals the terminal record first and calls release last,
// exactly once. On a run already terminal release does nothing. The returned
// snapshot carries the outputs JSON: out.raw for a run this call finished.
func (st *RunStore) Finish(id string, out runOutputs, runErr error, canceled bool) (snap RunSnapshot, release func(), ok bool) {
	st.mu.Lock()
	rec, ok := st.runs[id]
	if !ok {
		st.mu.Unlock()
		return RunSnapshot{}, func() {}, false
	}
	if rec.snap.State.Terminal() {
		snap, deflated := rec.snap, rec.deflated
		st.mu.Unlock()
		snap.Outputs = heldJSON(snap.Outputs, deflated)
		return snap, func() {}, true
	}
	defer st.mu.Unlock()
	now := time.Now()
	rec.snap.Finished = &now
	rec.work = nil
	if rec.snap.Started != nil {
		st.cpu[tenantLabel(rec.snap.Tenant)] += now.Sub(*rec.snap.Started).Seconds()
	}
	switch {
	case canceled:
		rec.snap.State = RunCanceled
		if runErr != nil {
			rec.snap.Error = runErr.Error()
		}
	case runErr != nil:
		rec.snap.State = RunFailed
		rec.snap.Error = runErr.Error()
	default:
		rec.snap.State = RunSucceeded
		rec.snap.Outputs, rec.deflated = out.held, out.deflated
	}
	snap = rec.snap
	if snap.State == RunSucceeded {
		snap.Outputs = out.raw
	}
	done := rec.done
	st.terminal++
	st.pruneLocked()
	return snap, func() { close(done) }, true
}

// pruneLocked evicts the oldest terminal runs past the retention cap. The
// walk from the oldest run passes only queued or running runs before it
// reaches an evictable one, so it costs O(active runs). Caller holds st.mu.
func (st *RunStore) pruneLocked() {
	if st.retain <= 0 {
		return
	}
	for rec := st.order.next; rec != &st.order && st.terminal > st.retain; {
		next := rec.next
		if rec.snap.State.Terminal() {
			rec.unlink()
			delete(st.runs, rec.snap.ID)
			st.terminal--
			if st.onEvict != nil {
				st.onEvict(rec.snap.ID)
			}
		}
		rec = next
	}
}

// Done returns a channel closed when the run reaches a terminal state.
func (st *RunStore) Done(id string) (<-chan struct{}, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.runs[id]
	if !ok {
		return nil, false
	}
	return rec.done, true
}

// cpuLedger copies the per-tenant CPU ledger (whole-run seconds by tenant).
func (st *RunStore) cpuLedger() map[string]float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]float64, len(st.cpu))
	for k, v := range st.cpu {
		out[k] = v
	}
	return out
}

// cpuSeconds returns the whole-run seconds charged to the tenant.
func (st *RunStore) cpuSeconds(tenantName string) float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cpu[tenantLabel(tenantName)]
}

// journalRuns returns the journal form of every retained run keep selects,
// oldest first; a non-terminal run carries the source and inputs its work
// holds, so a compaction snapshot can re-execute it after a restart.
func (st *RunStore) journalRuns(keep func(id string) bool) []runWire {
	st.mu.Lock()
	var out []runWire
	var packed []int // indexes into out of deflated outputs
	for rec := st.order.next; rec != &st.order; rec = rec.next {
		if !keep(rec.snap.ID) {
			continue
		}
		w := toWire(rec.snap)
		if rec.work != nil {
			w.Source, w.Inputs = rec.work.source, rec.work.inputsJSON
		}
		if rec.deflated {
			packed = append(packed, len(out))
		}
		out = append(out, w)
	}
	st.mu.Unlock()
	for _, i := range packed {
		out[i].Outputs = inflate(out[i].Outputs)
	}
	return out
}

// Counts aggregates runs by state.
func (st *RunStore) Counts() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := map[string]int{}
	for _, rec := range st.runs {
		out[rec.snap.State.String()]++
	}
	return out
}
