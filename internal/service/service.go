// Package service is the workflow submission service over the Parsl+CWL
// engine: it turns the single-run parsl-cwl library into a servable system
// that multiplexes many concurrent CWL runs over one shared DataFlowKernel.
//
// The subsystem has six pieces:
//
//   - RunStore holds each run in one record through the
//     queued → running → succeeded/failed/canceled lifecycle: its snapshot,
//     outputs and errors, the payload a worker executes, and the per-tenant
//     CPU ledger charged as it finishes. Task-event logs are served from the
//     DFK's per-label event index (attributed by submission label) and
//     released when retention evicts the run.
//   - Scheduler bounds run concurrency with a worker pool that drains
//     per-tenant priority+FIFO sub-queues by weighted round-robin, supports
//     cancellation of queued and running work, and drains gracefully on
//     shutdown.
//   - DocCache memoizes parse+validate by content hash so repeated
//     submissions of the same CWL source skip the load path.
//   - ResultCache (resultcache.go) shares a succeeded run's outputs across
//     tenants, keyed by document hash and inputs, so an identical submission
//     finishes without executing.
//   - Handler (http.go) exposes the whole thing as a REST API:
//     POST /runs, GET /runs, GET /runs/{id}, GET /runs/{id}/events,
//     DELETE /runs/{id}, GET /healthz.
//   - persister (persist.go) makes runs durable when Options.DataDir is set:
//     lifecycle transitions and memoized task results are journaled to an
//     fsync-batched write-ahead log (internal/persist) with periodic
//     compacted snapshots; on startup the journal replays — terminal runs
//     return as history, interrupted runs are re-enqueued, and the restored
//     memo table turns their completed steps into memo hits.
//
// One Service owns its RunStore, Scheduler, DocCache and ResultCache but
// deliberately shares the DFK: executor capacity is the scarce resource the
// scheduler is multiplexing, exactly the multi-workflow regime the paper's
// single-run prototype could not express.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/cwl"
	"repro/internal/obs"
	"repro/internal/parsl"
	"repro/internal/persist"
	"repro/internal/runner"
	"repro/internal/tenant"
	"repro/internal/yamlx"
)

// Typed errors the HTTP layer maps to status codes.
var (
	// ErrInvalidDocument wraps CWL parse/validation failures (HTTP 400).
	ErrInvalidDocument = errors.New("invalid CWL document")
	// ErrNotFound marks an unknown run ID (HTTP 404).
	ErrNotFound = errors.New("no such run")
	// ErrAlreadyFinished marks a cancel of a terminal run (HTTP 409).
	ErrAlreadyFinished = errors.New("run already finished")
	// ErrQueueFull is the backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("run queue is full")
	// ErrOverloaded is the admission-control signal: the service is past its
	// in-flight cap and is shedding load (HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("service is overloaded")
	// ErrUnknownProvider marks a run pinned to a provider the service does
	// not offer (HTTP 400).
	ErrUnknownProvider = errors.New("unknown execution provider")
	// ErrDraining marks submissions during shutdown (HTTP 503).
	ErrDraining = errors.New("service is draining")
	// ErrDuplicateRun marks an enqueue of an ID already queued or running —
	// always a caller bug; the scheduler must never execute one ID twice.
	ErrDuplicateRun = errors.New("run is already scheduled")
	// ErrQuotaExceeded marks a submission shed by the submitting tenant's own
	// quota — queue depth, concurrency, or CPU budget (HTTP 429 +
	// Retry-After). Unlike ErrQueueFull/ErrOverloaded it says nothing about
	// global load: other tenants are unaffected.
	ErrQuotaExceeded = errors.New("tenant quota exceeded")
	// ErrUnauthorized marks a request with a missing or unknown API key when
	// the service has a tenant registry (HTTP 401).
	ErrUnauthorized = errors.New("missing or invalid API key")
)

// Options configures a Service.
type Options struct {
	// Workers is the number of runs executed concurrently (default 4).
	// Tasks within a run still fan out across the DFK's executors; this
	// bounds whole-run concurrency, not task concurrency.
	Workers int
	// QueueDepth bounds queued (not yet running) runs; submissions beyond it
	// fail with ErrQueueFull. 0 selects the default of 64; negative means
	// unbounded.
	QueueDepth int
	// MaxInFlight bounds admitted-but-unfinished runs (queued + running):
	// submissions past it are shed with ErrOverloaded before any parse or
	// journal work happens. 0 means no extra cap — QueueDepth and Workers
	// still bound the system naturally. It exists to let operators set an
	// admission ceiling tighter than queue capacity (graceful degradation
	// under sustained overload rather than a full queue of doomed work).
	MaxInFlight int
	// CacheSize bounds the parsed-document cache (default 128 documents).
	CacheSize int
	// RetainRuns bounds how many terminal runs the store keeps — the oldest
	// are evicted past the cap so a long-lived service does not grow without
	// bound. 0 selects the default of 4096; negative retains everything.
	RetainRuns int
	// WorkRoot is where per-run job directories are created (default: the
	// DFK run dir, else a directory under os.TempDir).
	WorkRoot string
	// InputsDir resolves relative input file paths (default WorkRoot).
	InputsDir string
	// Executor routes runs to a specific executor label ("" = default).
	Executor string
	// ProviderExecutors maps execution-provider labels to executor labels
	// (e.g. {"process": "htex-process"}): a submission pinning a provider
	// runs on the mapped executor. Empty means provider pinning is refused.
	ProviderExecutors map[string]string
	// DataDir enables durable runs: run lifecycle transitions and memo
	// commits are journaled to an fsync-batched write-ahead log here, and on
	// startup the journal is replayed — terminal runs are restored as
	// history, interrupted runs are re-enqueued, and the DFK memo table is
	// reloaded so re-execution is mostly memo hits. Empty keeps the service
	// in-memory only.
	DataDir string
	// CheckpointPeriod is how often the journal is compacted into a snapshot
	// (default 30s; negative disables periodic compaction — a snapshot is
	// still written at Close).
	CheckpointPeriod time.Duration
	// FsyncInterval is the journal's fsync batching window (default 25ms;
	// negative fsyncs every append). Appended records survive a process kill
	// regardless; the window only bounds loss on OS crash.
	FsyncInterval time.Duration
	// CacheBytes bounds the total CWL source bytes retained by the document
	// cache (0 selects the default of 64 MiB; negative disables the byte
	// cap, leaving only the entry-count cap).
	CacheBytes int64
	// DisableMetrics removes the GET /metrics route from Handler. The
	// registry still runs (it backs /healthz); only the exposition endpoint
	// is withheld.
	DisableMetrics bool
	// Tenants enables multi-tenant mode: requests must authenticate with a
	// registered API key (unless the registry defines the reserved default
	// tenant for anonymous traffic), the scheduler fair-shares by tenant
	// weight, and per-tenant quotas are enforced at admission. Nil runs the
	// service single-tenant and open, as before.
	Tenants *tenant.Registry
	// WALShards partitions the persistence journal into this many independent
	// fsync-batched WALs keyed by run-ID hash (0 selects
	// persist.DefaultShards; 1 keeps a single writer). A data directory
	// created by an earlier unsharded version is opened in place as one
	// shard. Ignored when DataDir is empty.
	WALShards int
	// ResultCacheSize bounds the shared cross-tenant whole-run result cache
	// (entries). 0 disables it: every submission executes. See docs/TENANCY.md
	// for the sharing/privacy model.
	ResultCacheSize int
	// Logger, when set, receives structured log records for run lifecycle
	// transitions (see cmd/parsl-cwl-serve -log-format) and, when it is
	// enabled for debug as the service is built, one "span" record per
	// finished task.
	Logger *slog.Logger
}

// SubmitRequest is one workflow submission.
type SubmitRequest struct {
	// Source is the CWL document text (YAML or JSON). It must be
	// self-contained: inline `run:` bodies or a packed $graph, no file refs.
	Source []byte
	// Inputs is the job order (may be nil for tools with defaults).
	Inputs *yamlx.Map
	// Name is an optional client-chosen display name.
	Name string
	// Priority orders the queue: higher dequeues first, FIFO within equal.
	Priority int
	// Provider pins the run to one of the service's execution providers
	// (Options.ProviderExecutors key); "" uses the default executor.
	Provider string
	// Deadline, when set, bounds the whole run: the run context expires at
	// this instant, every task submitted under it inherits it (the engine
	// deadline watchdog fails stragglers), and the run fails with a deadline
	// error. The HTTP layer fills it from the request's walltimeSeconds
	// field, or from the request context's own deadline.
	Deadline time.Time
	// Tenant is the authenticated submitting tenant ("" maps to the default
	// tenant). When the service has a tenant registry the name must be
	// registered — the HTTP layer fills it from the Authorization header.
	Tenant string
}

// Stats is the service health/load summary served by /healthz.
type Stats struct {
	Runs        map[string]int `json:"runs"`
	Queued      int            `json:"queued"`
	Running     int            `json:"running"`
	Workers     int            `json:"workers"`
	CacheHits   int            `json:"cacheHits"`
	CacheMisses int            `json:"cacheMisses"`
	CacheSize   int            `json:"cacheSize"`
	CacheBytes  int64          `json:"cacheBytes"`
	// Executors reports the shared DFK's executor health: outstanding
	// tasks, live workers, and for HTEX the connected/lost/scaled-in block
	// counts and re-dispatched task total.
	Executors []parsl.ExecutorStats `json:"executors"`
	// Persistence reports durability state (journal size, last snapshot,
	// restored-run counts); nil when the service runs in-memory only.
	Persistence *PersistStats `json:"persistence,omitempty"`
	// ResultCacheHits/Misses/Entries describe the shared whole-run result
	// cache (all zero when it is disabled).
	ResultCacheHits    int `json:"resultCacheHits,omitempty"`
	ResultCacheMisses  int `json:"resultCacheMisses,omitempty"`
	ResultCacheEntries int `json:"resultCacheEntries,omitempty"`
	// Tenants reports per-tenant load and usage; nil when the service runs
	// without a tenant registry.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's slice of the service load, served by /healthz.
type TenantStats struct {
	// Queued/Running are the tenant's live scheduler depths.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// CPUSeconds is the tenant's accumulated whole-run execution time, read
	// from the run store's ledger (in memory: a restart resets it).
	CPUSeconds float64 `json:"cpuSeconds"`
}

// Service is the workflow submission service: a run store, a bounded
// scheduler, and a document cache over one shared DFK.
type Service struct {
	dfk   *parsl.DFK
	opts  Options
	store *RunStore
	cache *DocCache
	sched *Scheduler
	pers  *persister // nil when running in-memory only
	// results is the shared cross-tenant whole-run result cache (nil when
	// Options.ResultCacheSize is 0: a nil cache always misses).
	results *ResultCache
	// drain tracks recent run completions so Retry-After on shed requests
	// reflects the actual drain rate instead of a constant.
	drain drainEstimator

	// reg is the service-scoped metrics registry: gather-time collectors
	// over the same sources /healthz reads. Merged with obs.Default() (the
	// engine layers' process-wide counters) on GET /metrics.
	reg *obs.Registry
	// removeSpanLog detaches the debug span log from the shared DFK at Close,
	// so a closed service is not retained by the DFK's hook list.
	removeSpanLog func()
}

// pendingRun is a run's payload, held by its store record from submission
// until the run finishes.
type pendingRun struct {
	doc cwl.Document
	// idx is the DocCache's prebuilt dataflow index (nil for tools).
	idx    *runner.StepIndex
	inputs *yamlx.Map
	// provider is the pinned execution provider ("" = default executor).
	provider string
	// deadline bounds the whole run (zero = unbounded).
	deadline time.Time
	// resultKey is the run's content address in the shared result cache
	// ("" when result sharing is off or the tenant opted out): on success the
	// outputs are inserted under it.
	resultKey string
	// source and inputsJSON are the CWL text and canonical inputs the journal
	// records for a run that must survive a restart; set only on a durable
	// service.
	source     string
	inputsJSON json.RawMessage
}

// New builds a Service over a loaded DFK.
func New(dfk *parsl.DFK, opts Options) (*Service, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 64
	}
	if opts.WorkRoot == "" {
		if opts.WorkRoot = dfk.RunDir(); opts.WorkRoot == "" {
			opts.WorkRoot = filepath.Join(os.TempDir(), "parsl-cwl-serve")
		}
	}
	if err := os.MkdirAll(opts.WorkRoot, 0o755); err != nil {
		return nil, fmt.Errorf("service work root: %w", err)
	}
	if opts.InputsDir == "" {
		opts.InputsDir = opts.WorkRoot
	}
	if opts.RetainRuns == 0 {
		opts.RetainRuns = 4096
	}
	if opts.CheckpointPeriod == 0 {
		opts.CheckpointPeriod = 30 * time.Second
	}
	s := &Service{
		dfk:     dfk,
		opts:    opts,
		store:   NewRunStore(opts.RetainRuns),
		cache:   NewDocCache(opts.CacheSize, opts.CacheBytes),
		results: NewResultCache(opts.ResultCacheSize),
		reg:     obs.NewRegistry(),
		// A debug span log is the only reader of a live event hook; without
		// one the DFK pays no per-event callback.
		removeSpanLog: func() {},
	}
	s.sched = NewScheduler(opts.Workers, opts.QueueDepth, s.tenantLimits, s.execute)
	s.registerCollectors()
	if opts.Logger != nil && opts.Logger.Enabled(context.Background(), slog.LevelDebug) {
		s.removeSpanLog = logTaskSpans(dfk, opts.Logger)
	}
	// A run's history lives once, in the DFK's per-label index (runs are
	// labeled with their ID), and its spans are derived from it on read; when
	// retention evicts a run, drop its label index from the shared DFK so a
	// long-lived service does not pin every past run's events.
	s.store.SetOnEvict(dfk.ForgetLabel)

	if opts.DataDir != "" {
		if err := s.openPersistence(); err != nil {
			s.sched.Close(context.Background())
			s.removeSpanLog()
			return nil, err
		}
	}
	return s, nil
}

// openPersistence replays the journal in opts.DataDir into the store, the
// scheduler, and the DFK memo table, then attaches the journaling hooks and
// starts the checkpoint loop.
func (s *Service) openPersistence() error {
	log, err := persist.OpenSharded(s.opts.DataDir, s.opts.WALShards, persist.Options{FsyncInterval: s.opts.FsyncInterval})
	if err != nil {
		return err
	}
	p := newPersister(log)
	state, err := p.replay()
	if err != nil {
		log.Close()
		return fmt.Errorf("service: replaying %s: %w", s.opts.DataDir, err)
	}
	bumpRunSeq(state.seq)
	p.restoreMemo(s.dfk, state.memo)

	// Rebuild the store: terminal runs become history; runs that were queued
	// or running at crash time are reset to queued and re-enqueued below
	// (after the journal hooks attach, so their fresh transitions are
	// recorded).
	type resubmit struct {
		id       string
		tenant   string
		priority int
	}
	var rerun []resubmit
	now := time.Now()
	for _, id := range state.order {
		w := state.runs[id]
		snap := RunSnapshot(w.runFields)
		snap.Restored = true
		if snap.State.Terminal() {
			s.store.Restore(snap, nil)
			p.restoredRuns++
			continue
		}
		fail := func(cause string) {
			t := now
			snap.State = RunFailed
			snap.Finished = &t
			snap.Error = cause
			s.store.Restore(snap, nil)
			p.restoredRuns++
		}
		if w.Source == "" {
			fail("recovered run lost its submission payload")
			continue
		}
		d, _, err := s.cache.Load([]byte(w.Source))
		if err != nil {
			fail(fmt.Sprintf("recovered run no longer validates: %v", err))
			continue
		}
		var inputs *yamlx.Map
		if len(w.Inputs) > 0 {
			v, err := yamlx.DecodeJSON(w.Inputs)
			if err != nil {
				fail(fmt.Sprintf("recovered run has undecodable inputs: %v", err))
				continue
			}
			inputs, _ = v.(*yamlx.Map)
		}
		snap.State = RunQueued
		snap.Started = nil
		s.store.Restore(snap, &pendingRun{
			doc: d.Doc, idx: d.Index, inputs: inputs, provider: snap.Provider,
			resultKey: s.resultKeyFor(snap.Tenant, snap.DocHash, inputs),
			source:    w.Source, inputsJSON: w.Inputs,
		})
		rerun = append(rerun, resubmit{id: snap.ID, tenant: snap.Tenant, priority: snap.Priority})
		p.resubmitted++
	}

	s.pers = p
	p.removeMemo = s.dfk.OnMemoCommit(p.memoCommitted)
	for _, r := range rerun {
		if err := s.sched.EnqueueRestored(r.id, r.tenant, r.priority); err != nil {
			s.finishRun(r.id, runOutputs{}, fmt.Errorf("re-enqueue after restart: %w", err), false, "")
		}
	}
	go p.checkpointLoop(s, s.opts.CheckpointPeriod)
	return nil
}

// finishRun finalizes a run (the store drops its payload, keeps the held
// form of its outputs and charges the tenant's CPU ledger), journals the
// terminal transition, publishes a success under resultKey (when set) to the
// result cache, and feeds the drain-rate estimator behind Retry-After.
// Waiters are released last, so a client told that a run finished can rely
// on its terminal record being in the journal.
func (s *Service) finishRun(id string, out runOutputs, runErr error, canceled bool, resultKey string) (RunSnapshot, bool) {
	snap, release, ok := s.store.Finish(id, out, runErr, canceled)
	defer release()
	if !ok {
		return snap, false
	}
	if s.pers != nil {
		s.pers.runChanged(snap)
	}
	if snap.Started != nil {
		metRunDuration.With(snap.State.String()).Observe(snap.Finished.Sub(*snap.Started).Seconds())
	}
	if resultKey != "" && snap.State == RunSucceeded {
		// Publish the whole-run result for identical future submissions,
		// from any non-private tenant: the store's held copy, shared.
		s.results.Put(resultKey, out)
	}
	s.drain.record(time.Now())
	if logger := s.opts.Logger; logger != nil {
		logger.Info("run finished", "runId", id, "state", snap.State.String(), "error", snap.Error)
	}
	return snap, true
}

// tenantLabel maps the empty tenant onto the default name so metrics and
// accounting never emit an empty label value.
func tenantLabel(name string) string {
	if name == "" {
		return tenant.DefaultName
	}
	return name
}

// tenantLimits projects a tenant's registry policy into the scheduler's
// fair-share terms. Without a registry every tenant gets weight 1, uncapped —
// exactly the old single-queue behavior when all traffic is one tenant.
func (s *Service) tenantLimits(name string) TenantLimits {
	reg := s.opts.Tenants
	if reg == nil {
		return TenantLimits{}
	}
	t, ok := reg.Get(tenantLabel(name))
	if !ok {
		return TenantLimits{}
	}
	return TenantLimits{Weight: t.Weight, MaxQueued: t.MaxQueued, MaxRunning: t.MaxRunning}
}

// resolveTenant validates the submission's tenant against the registry and
// returns its policy record. Without a registry everything maps to an
// unrestricted default tenant.
func (s *Service) resolveTenant(name string) (tenant.Tenant, error) {
	name = tenantLabel(name)
	reg := s.opts.Tenants
	if reg == nil {
		return tenant.Tenant{Name: name}, nil
	}
	t, ok := reg.Get(name)
	if !ok {
		return tenant.Tenant{}, fmt.Errorf("%w: unknown tenant %q", ErrUnauthorized, name)
	}
	return t, nil
}

// private reports whether the tenant opted out of sharing results.
func (s *Service) private(tenantName string) bool {
	if reg := s.opts.Tenants; reg != nil {
		t, ok := reg.Get(tenantLabel(tenantName))
		return ok && t.Private
	}
	return false
}

// resultKeyFor computes the run's shared-result-cache address, or "" when
// result sharing is off or the tenant opted out (Private).
func (s *Service) resultKeyFor(tenantName, docHash string, inputs *yamlx.Map) string {
	if s.results == nil || s.private(tenantName) {
		return ""
	}
	return ResultKey(docHash, inputs)
}

// memoScope is the scope that keys a run's workflow step tasks in the DFK
// memo table. The document hash makes identical steps memo hits across runs
// and — with the restored memo table — across process restarts; a private
// tenant's runs qualify it with the tenant, so their step results (files in
// the private run's directory) are hits only for that tenant's own runs,
// crash resume included.
func (s *Service) memoScope(snap RunSnapshot) string {
	if s.private(snap.Tenant) {
		return "tenant:" + tenantLabel(snap.Tenant) + "/" + snap.DocHash
	}
	return snap.DocHash
}

// executorFor resolves a pinned provider label to an executor label.
func (s *Service) executorFor(providerLabel string) (string, error) {
	if providerLabel == "" {
		return s.opts.Executor, nil
	}
	label, ok := s.opts.ProviderExecutors[providerLabel]
	if !ok {
		return "", fmt.Errorf("%w %q", ErrUnknownProvider, providerLabel)
	}
	return label, nil
}

// shedMetrics counts one shed submission, globally and per tenant.
func (s *Service) shedMetrics(tenantName, reason string) {
	metShed.With(reason).Inc()
	metTenantShed.With(tenantLabel(tenantName), reason).Inc()
}

// Submit validates, registers, and enqueues one run, returning its queued
// snapshot immediately — or, on a shared-result-cache hit, its already
// succeeded snapshot without executing anything.
func (s *Service) Submit(req SubmitRequest) (RunSnapshot, error) {
	snap, _, err := s.submit(req)
	return snap, err
}

// submit is Submit that also reports whether the run's document is
// in-process (CachedDoc.InProcess), so POST /runs can wait briefly for it.
func (s *Service) submit(req SubmitRequest) (RunSnapshot, bool, error) {
	// Admission control runs first: a shed submission must cost nothing — no
	// parse, no store entry, no journal record. Per-tenant checks (CPU
	// budget here, read from the store's ledger only for a budgeted tenant;
	// queue quota at enqueue) shed only the offending tenant; the global
	// in-flight cap sheds everyone.
	tn, err := s.resolveTenant(req.Tenant)
	if err != nil {
		metRunsRejected.With(rejectReason(err)).Inc()
		return RunSnapshot{}, false, err
	}
	if s.opts.MaxInFlight > 0 {
		queued, running := s.sched.Depths()
		if queued+running >= s.opts.MaxInFlight {
			err := fmt.Errorf("%w: %d runs in flight (cap %d)", ErrOverloaded, queued+running, s.opts.MaxInFlight)
			s.shedMetrics(tn.Name, "inflight_cap")
			metRunsRejected.With(rejectReason(err)).Inc()
			return RunSnapshot{}, false, s.withRetryAfter(err)
		}
	}
	if tn.CPUSeconds > 0 {
		if used := s.store.cpuSeconds(tn.Name); used >= tn.CPUSeconds {
			err := fmt.Errorf("%w: tenant %q has consumed its CPU-seconds budget (%.0fs of %.0fs)",
				ErrQuotaExceeded, tn.Name, used, tn.CPUSeconds)
			s.shedMetrics(tn.Name, "cpu_budget")
			metRunsRejected.With(rejectReason(err)).Inc()
			return RunSnapshot{}, false, s.withRetryAfter(err)
		}
	}
	if _, err := s.executorFor(req.Provider); err != nil {
		metRunsRejected.With(rejectReason(err)).Inc()
		return RunSnapshot{}, false, err
	}
	d, hit, err := s.cache.Load(req.Source)
	if err != nil {
		metRunsRejected.With(rejectReason(err)).Inc()
		return RunSnapshot{}, false, err
	}
	// Client priorities are clamped to the documented range and only order
	// runs within this tenant's sub-queue; cross-tenant share is the tenant
	// weight's job, so an inflated priority cannot starve other tenants.
	effective := ClampPriority(req.Priority)
	meta := RunMeta{
		Name: req.Name, Class: d.Doc.Class(), DocHash: d.Hash,
		Provider: req.Provider, Tenant: tn.Name,
		Priority: effective, CacheHit: hit,
	}

	resultKey := s.resultKeyFor(tn.Name, d.Hash, req.Inputs)
	if resultKey != "" {
		if outputs, ok := s.results.Get(resultKey); ok {
			// Whole-run result hit: the run is recorded (and journaled) like
			// any other, but completes immediately with the shared outputs —
			// it never touches the scheduler, and its record keeps the
			// cache's held copy.
			meta.ResultCached = true
			snap, err := s.register(meta, nil, req)
			if err != nil {
				return RunSnapshot{}, false, err
			}
			metRunsAdmitted.Inc()
			metTenantAdmitted.With(tn.Name).Inc()
			metTenantResultHits.With(tn.Name).Inc()
			snap, _ = s.finishRun(snap.ID, outputs, nil, false, "")
			return snap, d.InProcess, nil
		}
	}

	// The submission is journaled before it can start: the worker's own
	// transitions must never precede the submit record.
	snap, err := s.register(meta, &pendingRun{
		doc: d.Doc, idx: d.Index, inputs: req.Inputs, provider: req.Provider,
		deadline: req.Deadline, resultKey: resultKey,
	}, req)
	if err != nil {
		return RunSnapshot{}, false, err
	}
	if err := s.sched.Enqueue(snap.ID, tn.Name, effective); err != nil {
		if s.pers != nil {
			s.pers.runRejected(snap.ID)
		}
		s.store.Delete(snap.ID)
		switch {
		case errors.Is(err, ErrQueueFull):
			s.shedMetrics(tn.Name, "queue_full")
			err = s.withRetryAfter(err)
		case errors.Is(err, ErrQuotaExceeded):
			s.shedMetrics(tn.Name, "queue_quota")
			err = s.withRetryAfter(err)
		}
		metRunsRejected.With(rejectReason(err)).Inc()
		return RunSnapshot{}, false, err
	}
	metRunsAdmitted.Inc()
	metTenantAdmitted.With(tn.Name).Inc()
	return snap, d.InProcess, nil
}

// register records a new run holding work in the store. On a durable
// service it first adds the journal's source and canonical inputs to work
// (allocating one for a run that never executes) and journals the
// submission; a durable service must not ACK a run its journal failed to
// record, so on a journal error the run is deleted again.
func (s *Service) register(meta RunMeta, work *pendingRun, req SubmitRequest) (RunSnapshot, error) {
	if s.pers == nil {
		return s.store.Create(meta, work), nil
	}
	if work == nil {
		work = &pendingRun{}
	}
	work.source = string(req.Source)
	if req.Inputs != nil {
		if raw, err := req.Inputs.MarshalJSON(); err == nil {
			work.inputsJSON = raw
		}
	}
	snap := s.store.Create(meta, work)
	if err := s.pers.runSubmitted(snap, work); err != nil {
		s.store.Delete(snap.ID)
		metRunsRejected.With("journal").Inc()
		return RunSnapshot{}, fmt.Errorf("journaling submission: %w", err)
	}
	return snap, nil
}

// execute is the scheduler worker body: one whole run on the shared DFK.
func (s *Service) execute(ctx context.Context, id string) {
	snap, w, ok := s.store.Start(id)
	if !ok {
		return // canceled between dequeue and start
	}
	metRunQueueWait.Observe(snap.Started.Sub(snap.Created).Seconds())
	if logger := s.opts.Logger; logger != nil {
		logger.Info("run started", "runId", id, "class", snap.Class, "provider", snap.Provider)
	}
	if s.pers != nil {
		s.pers.runChanged(snap)
	}
	executor, err := s.executorFor(w.provider)
	if err != nil {
		// The provider disappeared between restarts (a restored run pinned a
		// backend this process does not offer).
		s.finishRun(id, runOutputs{}, err, false, "")
		return
	}
	r := &core.Runner{
		DFK:       s.dfk,
		WorkRoot:  filepath.Join(s.opts.WorkRoot, id),
		InputsDir: s.opts.InputsDir,
		Executor:  executor,
		Label:     id,
		Scope:     s.memoScope(snap),
		// The cached document's prebuilt dataflow index skips per-run graph
		// construction.
		StepIndex: w.idx,
	}
	if !w.deadline.IsZero() {
		// The run-level deadline flows through the run context: submissions
		// under it carry it as the per-task deadline (engine watchdog), and
		// the context itself expiring fails the run.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, w.deadline)
		defer cancel()
	}
	outputs, err := r.RunContext(ctx, w.doc, w.inputs)
	// A deadline expiry is a failure, not a cancellation — only an operator
	// cancel (scheduler context canceled) reports RunCanceled.
	canceled := err != nil && errors.Is(ctx.Err(), context.Canceled)
	// The outputs are encoded and packed once, here, outside every lock; the
	// journal and the finished run's waiters get these bytes, the store and
	// the result cache share their held form, and the decoded task results
	// become garbage as the run finishes.
	var out runOutputs
	if err == nil && outputs != nil {
		raw, merr := outputs.MarshalJSON()
		if merr != nil {
			err = fmt.Errorf("encoding run outputs: %w", merr)
		} else {
			out = packOutputs(raw)
		}
	}
	s.finishRun(id, out, err, canceled, w.resultKey)
}

// Get returns the current snapshot of a run.
func (s *Service) Get(id string) (RunSnapshot, bool) { return s.store.Get(id) }

// List returns every run, oldest first.
func (s *Service) List() []RunSnapshot { return s.store.List() }

// Events returns the run's task-event log — the per-label slice of the
// shared DFK stream (DFK.EventsFor is O(this run's events), not a scan of
// the whole log). Logs are bounded by the DFK's MaxEvents cap per run and
// MaxLabels runs overall; a service retaining more runs than the DFK's
// MaxLabels should raise that cap.
func (s *Service) Events(id string) ([]parsl.TaskEvent, bool) {
	if _, ok := s.store.Get(id); !ok {
		return nil, false
	}
	return s.dfk.EventsFor(id), true
}

// Cancel cancels a queued or running run and returns its snapshot.
func (s *Service) Cancel(id string) (RunSnapshot, error) {
	snap, ok := s.store.Get(id)
	if !ok {
		return RunSnapshot{}, ErrNotFound
	}
	switch s.sched.Cancel(id) {
	case CancelDequeued:
		snap, _ = s.finishRun(id, runOutputs{}, context.Canceled, true, "")
		return snap, nil
	case CancelSignaled:
		// The worker observes the canceled context and finishes the run;
		// report the current (running) snapshot without waiting. If the run
		// beat the cancel to a terminal state, honor the 409 contract.
		snap, _ = s.store.Get(id)
		if snap.State.Terminal() && snap.State != RunCanceled {
			return snap, ErrAlreadyFinished
		}
		return snap, nil
	default:
		snap, _ = s.store.Get(id)
		if snap.State.Terminal() {
			return snap, ErrAlreadyFinished
		}
		// The submission is between store registration and enqueue: marking
		// it canceled drops its payload, so a later dequeue is a no-op.
		snap, _ = s.finishRun(id, runOutputs{}, context.Canceled, true, "")
		return snap, nil
	}
}

// Wait blocks until the run reaches a terminal state or ctx is done.
func (s *Service) Wait(ctx context.Context, id string) (RunSnapshot, error) {
	done, ok := s.store.Done(id)
	if !ok {
		return RunSnapshot{}, ErrNotFound
	}
	select {
	case <-done:
		snap, _ := s.store.Get(id)
		return snap, nil
	case <-ctx.Done():
		snap, _ := s.store.Get(id)
		return snap, ctx.Err()
	}
}

// Stats summarizes service load, cache effectiveness, and durability state.
// The numeric fields are projected from the obs registry — the same gather
// the /metrics endpoint serves — so /healthz and /metrics cannot drift; the
// structured fields (per-executor block detail, persistence dir/timestamps)
// carry what a flat metric sample cannot, read from the same sources the
// registry's collectors read.
func (s *Service) Stats() Stats {
	fams := s.reg.Gather()
	intOf := func(name string) int {
		v, _ := obs.Value(fams, name)
		return int(v)
	}
	st := Stats{
		Runs:        map[string]int{},
		Queued:      intOf("pcwl_sched_queue_depth"),
		Running:     intOf("pcwl_sched_running"),
		Workers:     intOf("pcwl_sched_workers"),
		CacheHits:   intOf("pcwl_doccache_hits_total"),
		CacheMisses: intOf("pcwl_doccache_misses_total"),
		CacheSize:   intOf("pcwl_doccache_entries"),
		CacheBytes:  int64(intOf("pcwl_doccache_bytes")),
		Executors:   s.dfk.ExecutorStats(),
	}
	for _, smp := range obs.Samples(fams, "pcwl_runs") {
		for _, l := range smp.Labels {
			if l.Name == "state" {
				st.Runs[l.Value] = int(smp.Value)
			}
		}
	}
	st.ResultCacheHits, st.ResultCacheMisses, st.ResultCacheEntries = s.results.Stats()
	if reg := s.opts.Tenants; reg != nil {
		st.Tenants = map[string]TenantStats{}
		depths := s.sched.TenantDepths()
		cpu := map[string]float64{}
		for _, smp := range obs.Samples(fams, "pcwl_tenant_cpu_seconds_total") {
			cpu[smp.Labels[0].Value] = smp.Value
		}
		for _, name := range reg.Names() {
			d := depths[name]
			st.Tenants[name] = TenantStats{
				Queued:     d.Queued,
				Running:    d.Running,
				CPUSeconds: cpu[name],
			}
		}
	}
	if s.pers != nil {
		st.Persistence = s.pers.stats()
	}
	return st
}

// Registry returns the service-scoped metrics registry (gauges and
// collectors tied to this Service's lifetime). Merge it with obs.Default()
// for a full exposition page.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Close drains the service: new submissions are rejected, queued runs are
// marked canceled, and in-flight runs are awaited until ctx expires (then
// force-canceled and still awaited). Force-canceled runs may still have
// tasks racing the DFK's executor shutdown — the executors' lifecycle
// protocol guarantees those submissions fail cleanly (never panic) and their
// callbacks fire exactly once, so drain-then-Cleanup is safe in any order.
// A graceful close also writes a final compacted snapshot and closes the
// journal, so the next start replays from a minimal, current state.
func (s *Service) Close(ctx context.Context) error {
	dropped, err := s.sched.Close(ctx)
	for _, id := range dropped {
		s.finishRun(id, runOutputs{}, ErrDraining, true, "")
	}
	if s.pers != nil {
		if perr := s.pers.close(s); err == nil {
			err = perr
		}
	}
	s.removeSpanLog()
	return err
}
