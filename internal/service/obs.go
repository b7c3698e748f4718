package service

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parsl"
)

// Package-level run-admission instruments on the Default registry.
var (
	metRunsAdmitted = obs.Default().Counter(
		"pcwl_runs_admitted_total",
		"Runs accepted by Submit and enqueued.")
	metRunsRejected = obs.Default().CounterVec(
		"pcwl_runs_rejected_total",
		"Runs rejected at submission, by reason.",
		"reason")
	metShed = obs.Default().CounterVec(
		"pcwl_service_shed_total",
		"Submissions shed by admission control (backpressure), by reason.",
		"reason")
	metRunQueueWait = obs.Default().Histogram(
		"pcwl_run_queue_wait_seconds",
		"Time a run spent queued before a scheduler worker picked it up.",
		nil)
	metRunDuration = obs.Default().HistogramVec(
		"pcwl_run_duration_seconds",
		"Whole-run execution time (start to terminal state), by outcome.",
		obs.ExpBuckets(0.01, 3, 13),
		"state")

	// Per-tenant admission and usage counters. The tenant label is the
	// registry name (or "default" in single-tenant mode), so cardinality is
	// operator-bounded.
	metTenantAdmitted = obs.Default().CounterVec(
		"pcwl_tenant_runs_admitted_total",
		"Runs accepted by Submit, by tenant.",
		"tenant")
	metTenantShed = obs.Default().CounterVec(
		"pcwl_tenant_shed_total",
		"Submissions shed by admission control, by tenant and reason.",
		"tenant", "reason")
	metTenantResultHits = obs.Default().CounterVec(
		"pcwl_tenant_result_cache_hits_total",
		"Submissions answered whole from the shared result cache, by tenant.",
		"tenant")
)

// rejectReason maps a Submit error onto the rejected-counter reason label.
func rejectReason(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrInvalidDocument):
		return "invalid_document"
	case errors.Is(err, ErrUnknownProvider):
		return "unknown_provider"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrQuotaExceeded):
		return "tenant_quota"
	case errors.Is(err, ErrUnauthorized):
		return "unauthorized"
	case errors.Is(err, ErrDuplicateRun):
		return "duplicate"
	default:
		return "other"
	}
}

// registerCollectors wires the per-service registry: live gauges and
// counter mirrors produced at gather time from the same sources /healthz
// reads (scheduler depths, run store counts, doc cache, executor stats,
// persistence stats, DFK index sizes) — one source, two surfaces, no drift.
func (s *Service) registerCollectors() {
	s.reg.Collect(func() []obs.Family {
		queued, running := s.sched.Depths()
		fams := []obs.Family{
			gaugeFam("pcwl_sched_queue_depth", "Runs queued, not yet picked up by a scheduler worker.", float64(queued)),
			gaugeFam("pcwl_sched_running", "Runs currently executing on scheduler workers.", float64(running)),
			gaugeFam("pcwl_sched_workers", "Scheduler worker-pool size (whole-run concurrency bound).", float64(s.opts.Workers)),
		}

		runs := obs.Family{Name: "pcwl_runs", Help: "Runs in the store, by lifecycle state.", Type: obs.TypeGauge}
		counts := s.store.Counts()
		states := make([]string, 0, len(counts))
		for st := range counts {
			states = append(states, st)
		}
		sort.Strings(states)
		for _, st := range states {
			runs.Samples = append(runs.Samples, obs.Sample{
				Labels: []obs.Label{{Name: "state", Value: st}},
				Value:  float64(counts[st]),
			})
		}
		fams = append(fams, runs)

		hits, misses, size, bytes := s.cache.Stats()
		fams = append(fams,
			counterFam("pcwl_doccache_hits_total", "Parsed-document cache hits.", float64(hits)),
			counterFam("pcwl_doccache_misses_total", "Parsed-document cache misses (each one parses and validates).", float64(misses)),
			gaugeFam("pcwl_doccache_entries", "Documents currently cached.", float64(size)),
			gaugeFam("pcwl_doccache_bytes", "Bytes retained by the document cache (source plus prebuilt index estimate).", float64(bytes)),
		)

		if s.results != nil {
			rcHits, rcMisses, rcEntries := s.results.Stats()
			fams = append(fams,
				counterFam("pcwl_resultcache_hits_total", "Whole-run submissions answered from the shared result cache.", float64(rcHits)),
				counterFam("pcwl_resultcache_misses_total", "Whole-run result-cache lookups that missed.", float64(rcMisses)),
				gaugeFam("pcwl_resultcache_entries", "Run results held by the shared result cache.", float64(rcEntries)),
			)
		}

		if depths := s.sched.TenantDepths(); len(depths) > 0 || s.opts.Tenants != nil {
			tq := obs.Family{Name: "pcwl_tenant_queue_depth", Help: "Runs queued per tenant.", Type: obs.TypeGauge}
			tr := obs.Family{Name: "pcwl_tenant_running", Help: "Runs executing per tenant.", Type: obs.TypeGauge}
			names := make([]string, 0, len(depths))
			for name := range depths {
				names = append(names, name)
			}
			if s.opts.Tenants != nil {
				// Registered tenants always appear, even idle, so dashboards
				// see a continuous series per tenant.
				for _, name := range s.opts.Tenants.Names() {
					if _, ok := depths[name]; !ok {
						names = append(names, name)
					}
				}
			}
			sort.Strings(names)
			for _, name := range names {
				l := []obs.Label{{Name: "tenant", Value: tenantLabel(name)}}
				d := depths[name]
				tq.Samples = append(tq.Samples, obs.Sample{Labels: l, Value: float64(d.Queued)})
				tr.Samples = append(tr.Samples, obs.Sample{Labels: l, Value: float64(d.Running)})
			}
			fams = append(fams, tq, tr)
		}

		// CPU seconds are fractional, so they live here as a gather-time
		// counter family over the run store's float ledger rather than an
		// integer counter vector.
		if cpu := s.store.cpuLedger(); len(cpu) > 0 {
			fam := obs.Family{Name: "pcwl_tenant_cpu_seconds_total", Help: "Whole-run execution seconds consumed, by tenant.", Type: obs.TypeCounter}
			names := make([]string, 0, len(cpu))
			for name := range cpu {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fam.Samples = append(fam.Samples, obs.Sample{
					Labels: []obs.Label{{Name: "tenant", Value: name}},
					Value:  cpu[name],
				})
			}
			fams = append(fams, fam)
		}

		fams = append(fams, executorFamilies(s.dfk.ExecutorStats())...)

		ix := s.dfk.IndexStats()
		fams = append(fams,
			gaugeFam("pcwl_dfk_event_labels", "Labels held by the per-label event index.", float64(ix.Labels)),
			gaugeFam("pcwl_dfk_label_events", "Events across the per-label event index.", float64(ix.LabelEvents)),
			gaugeFam("pcwl_dfk_memo_entries", "Entries in the DFK memoization table.", float64(ix.MemoEntries)),
			gaugeFam("pcwl_dfk_tracked_tasks", "Live DFK tasks: submitted and not yet terminal.", float64(ix.Tasks)),
		)

		if s.pers != nil {
			ps := s.pers.stats()
			fams = append(fams,
				gaugeFam("pcwl_wal_journal_bytes", "Current write-ahead-log journal size.", float64(ps.JournalBytes)),
				gaugeFam("pcwl_wal_journal_records", "Records in the current journal.", float64(ps.JournalRecords)),
				gaugeFam("pcwl_wal_snapshot_bytes", "Size of the last compacted snapshot.", float64(ps.SnapshotBytes)),
				gaugeFam("pcwl_runs_restored", "Terminal runs recovered as history at startup.", float64(ps.RestoredRuns)),
				gaugeFam("pcwl_runs_resubmitted", "Interrupted runs re-enqueued at startup.", float64(ps.ResubmittedRuns)),
				gaugeFam("pcwl_memo_restored_entries", "Checkpointed results loaded into the memo table at startup.", float64(ps.RestoredMemo)),
			)
			age := obs.Family{Name: "pcwl_wal_snapshot_age_seconds", Help: "Seconds since the last compacted snapshot (absent before the first).", Type: obs.TypeGauge}
			if ps.LastSnapshot != nil {
				age.Samples = []obs.Sample{{Value: time.Since(*ps.LastSnapshot).Seconds()}}
				fams = append(fams, age)
			}
		}
		return fams
	})
}

// executorFamilies renders per-executor series from the same ExecutorStats
// /healthz embeds.
func executorFamilies(stats []parsl.ExecutorStats) []obs.Family {
	outstanding := obs.Family{Name: "pcwl_executor_outstanding", Help: "Unfinished tasks per executor.", Type: obs.TypeGauge}
	workers := obs.Family{Name: "pcwl_executor_workers", Help: "Live workers per executor (pool size, or managers × per-node).", Type: obs.TypeGauge}
	managers := obs.Family{Name: "pcwl_htex_connected_managers", Help: "Connected HTEX managers per executor.", Type: obs.TypeGauge}
	launched := obs.Family{Name: "pcwl_htex_blocks_launched_total", Help: "Blocks launched by HTEX scale-out, per executor.", Type: obs.TypeCounter}
	lost := obs.Family{Name: "pcwl_htex_managers_lost_total", Help: "HTEX managers reaped as lost, per executor.", Type: obs.TypeCounter}
	scaledIn := obs.Family{Name: "pcwl_htex_blocks_scaled_in_total", Help: "Idle blocks scaled in by HTEX, per executor.", Type: obs.TypeCounter}
	redispatched := obs.Family{Name: "pcwl_htex_tasks_redispatched_total", Help: "Tasks re-dispatched after manager loss, per executor.", Type: obs.TypeCounter}
	quarantined := obs.Family{Name: "pcwl_htex_tasks_quarantined_total", Help: "Tasks quarantined as poison after exhausting their redispatch budget, per executor.", Type: obs.TypeCounter}
	parked := obs.Family{Name: "pcwl_htex_parked_tasks", Help: "Re-dispatched tasks parked awaiting interchange space, per executor.", Type: obs.TypeGauge}
	for _, st := range stats {
		l := []obs.Label{{Name: "executor", Value: st.Label}}
		outstanding.Samples = append(outstanding.Samples, obs.Sample{Labels: l, Value: float64(st.Outstanding)})
		workers.Samples = append(workers.Samples, obs.Sample{Labels: l, Value: float64(st.Workers)})
		if st.Provider == "" && st.ConnectedManagers == 0 && st.BlocksLaunched == 0 {
			continue // not an HTEX executor: skip the HTEX-only families
		}
		managers.Samples = append(managers.Samples, obs.Sample{Labels: l, Value: float64(st.ConnectedManagers)})
		launched.Samples = append(launched.Samples, obs.Sample{Labels: l, Value: float64(st.BlocksLaunched)})
		lost.Samples = append(lost.Samples, obs.Sample{Labels: l, Value: float64(st.ManagersLost)})
		scaledIn.Samples = append(scaledIn.Samples, obs.Sample{Labels: l, Value: float64(st.BlocksScaledIn)})
		redispatched.Samples = append(redispatched.Samples, obs.Sample{Labels: l, Value: float64(st.TasksRedispatched)})
		quarantined.Samples = append(quarantined.Samples, obs.Sample{Labels: l, Value: float64(st.TasksQuarantined)})
		parked.Samples = append(parked.Samples, obs.Sample{Labels: l, Value: float64(st.TasksParked)})
	}
	fams := []obs.Family{outstanding, workers}
	for _, f := range []obs.Family{managers, launched, lost, scaledIn, redispatched, quarantined, parked} {
		if len(f.Samples) > 0 {
			fams = append(fams, f)
		}
	}
	return fams
}

func gaugeFam(name, help string, v float64) obs.Family {
	return obs.Family{Name: name, Help: help, Type: obs.TypeGauge, Samples: []obs.Sample{{Value: v}}}
}

func counterFam(name, help string, v float64) obs.Family {
	return obs.Family{Name: name, Help: help, Type: obs.TypeCounter, Samples: []obs.Sample{{Value: v}}}
}

// --- run→step→task tracing ---

// taskTrack is one live task between its pending event and its terminal
// event, at which point it becomes a task span.
type taskTrack struct {
	start   time.Time
	waitDur time.Duration
}

// taskTracker turns a task-event stream into task spans. runSpans replays a
// run's retained events through a fresh tracker; the debug span log keeps
// one tracker on the DFK's event hook.
type taskTracker map[int]taskTrack

// stepOf derives the step identity from a task's app name: keyed workflow
// steps submit as "step:<id>"; anything else groups under the app name
// itself (e.g. "cwl-step", "cwl-tool").
func stepOf(app string) string {
	if rest, ok := strings.CutPrefix(app, "step:"); ok {
		return rest
	}
	return app
}

// observe folds one event into the tracker and returns the task's span when
// the event is terminal.
func (tt taskTracker) observe(ev parsl.TaskEvent) (obs.Span, bool) {
	switch ev.State {
	case parsl.StatePending:
		tt[ev.TaskID] = taskTrack{start: ev.Time}
	case parsl.StateLaunched:
		if tr, ok := tt[ev.TaskID]; ok && ev.WaitDur > 0 {
			tr.waitDur = ev.WaitDur
			tt[ev.TaskID] = tr
		}
	case parsl.StateDone, parsl.StateFailed, parsl.StateDepFail, parsl.StateMemoHit:
		tr, ok := tt[ev.TaskID]
		delete(tt, ev.TaskID)
		start := ev.Time
		wait := ev.WaitDur
		if ok {
			start = tr.start
			if tr.waitDur > 0 {
				wait = tr.waitDur
			}
		}
		attrs := map[string]string{"state": ev.State.String()}
		if wait > 0 {
			attrs["waitSeconds"] = formatSeconds(wait)
		}
		if ev.ExecDur > 0 {
			attrs["execSeconds"] = formatSeconds(ev.ExecDur)
		}
		if ev.Tries > 0 {
			attrs["tries"] = fmt.Sprint(ev.Tries)
		}
		if ev.State == parsl.StateMemoHit {
			attrs["memo"] = "hit"
		}
		return obs.Span{
			Trace:  ev.Label,
			ID:     fmt.Sprintf("task-%d", ev.TaskID),
			Parent: "step-" + stepOf(ev.App),
			Name:   ev.App,
			Kind:   obs.KindTask,
			Start:  start,
			End:    ev.Time,
			Attrs:  attrs,
		}, true
	}
	return obs.Span{}, false
}

// logTaskSpans installs the debug "span" log line: one record per task
// reaching a terminal state. It returns the hook's remover.
func logTaskSpans(dfk *parsl.DFK, logger *slog.Logger) (remove func()) {
	var mu sync.Mutex
	tt := taskTracker{}
	return dfk.OnTaskEvent(func(ev parsl.TaskEvent) {
		if ev.Label == "" {
			return
		}
		mu.Lock()
		sp, ok := tt.observe(ev)
		mu.Unlock()
		if ok {
			logger.Debug("span",
				"runId", sp.Trace, "span", sp.ID, "name", sp.Name,
				"kind", string(sp.Kind), "durSeconds", sp.Duration().Seconds())
		}
	})
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%.6f", d.Seconds())
}

// Spans assembles the run's full span tree: the run span from its store
// snapshot, step spans synthesized by grouping the task spans, and the task
// spans themselves, derived from the run's retained DFK events. It reports
// false for an unknown run.
func (s *Service) Spans(id string) ([]obs.Span, bool) {
	snap, ok := s.store.Get(id)
	if !ok {
		return nil, false
	}
	return runSpans(snap, s.dfk.EventsFor(id)), true
}

// runSpans builds the span tree of one run from its snapshot and events; its
// task spans come in the order the tasks finished.
func runSpans(snap RunSnapshot, events []parsl.TaskEvent) []obs.Span {
	tt := taskTracker{}
	var tasks []obs.Span
	for _, ev := range events {
		if sp, ok := tt.observe(ev); ok {
			tasks = append(tasks, sp)
		}
	}
	var out []obs.Span
	run := obs.Span{
		Trace: snap.ID,
		ID:    "run",
		Name:  snap.Name,
		Kind:  obs.KindRun,
		Start: snap.Created,
		Attrs: map[string]string{"state": snap.State.String(), "class": snap.Class},
	}
	if run.Name == "" {
		run.Name = snap.Class
	}
	if snap.Started != nil {
		run.Attrs["queueWaitSeconds"] = formatSeconds(snap.Started.Sub(snap.Created))
	}
	if snap.Finished != nil {
		run.End = *snap.Finished
	}
	if snap.CacheHit {
		run.Attrs["docCache"] = "hit"
	}
	out = append(out, run)

	// Step spans: group task spans by parent, span the envelope.
	type stepAgg struct {
		name       string
		start, end time.Time
		tasks      int
	}
	steps := map[string]*stepAgg{}
	var order []string
	for _, ts := range tasks {
		agg := steps[ts.Parent]
		if agg == nil {
			agg = &stepAgg{name: stepOf(ts.Name), start: ts.Start, end: ts.End}
			steps[ts.Parent] = agg
			order = append(order, ts.Parent)
		}
		if ts.Start.Before(agg.start) {
			agg.start = ts.Start
		}
		if ts.End.After(agg.end) {
			agg.end = ts.End
		}
		agg.tasks++
	}
	for _, sid := range order {
		agg := steps[sid]
		out = append(out, obs.Span{
			Trace:  snap.ID,
			ID:     sid,
			Parent: "run",
			Name:   agg.name,
			Kind:   obs.KindStep,
			Start:  agg.start,
			End:    agg.end,
			Attrs:  map[string]string{"tasks": fmt.Sprint(agg.tasks)},
		})
	}
	return append(out, tasks...)
}
