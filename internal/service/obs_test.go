package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/yamlx"
)

// TestMetricsExpositionLint is the CI exposition-format gate: after real
// work flows through the service, GET /metrics must parse under the strict
// parser (valid grammar, no duplicate series, cumulative histograms) and
// cover every layer the tentpole instruments.
func TestMetricsExpositionLint(t *testing.T) {
	srv, svc := startTestServer(t, 2)
	snap, err := svc.Submit(SubmitRequest{
		Source: []byte(twoStepWorkflow),
		Inputs: yamlx.MapOf("message", "observe me"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, svc, snap.ID); final.State != RunSucceeded {
		t.Fatalf("run state = %v (error %q)", final.State, final.Error)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics content type = %q", ct)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics failed strict exposition parse: %v", err)
	}

	// Every instrumented layer must be on the page: scheduler, run store,
	// DFK, executor, expression cache, document cache, WAL counters.
	for _, name := range []string{
		"pcwl_sched_queue_depth", "pcwl_sched_running", "pcwl_sched_workers",
		"pcwl_runs", "pcwl_runs_admitted_total",
		"pcwl_run_duration_seconds", "pcwl_run_queue_wait_seconds",
		"pcwl_doccache_hits_total", "pcwl_doccache_misses_total",
		"pcwl_dfk_tasks_submitted_total", "pcwl_dfk_task_transitions_total",
		"pcwl_dfk_task_wait_seconds", "pcwl_dfk_task_exec_seconds",
		"pcwl_dfk_event_labels", "pcwl_dfk_memo_entries",
		"pcwl_executor_outstanding", "pcwl_executor_workers",
		"pcwl_expr_program_cache_hits_total", "pcwl_expr_engine_pool_hits_total",
		"pcwl_wal_appends_total", "pcwl_wal_fsync_batches_total",
		"pcwl_provider_blocks_launched_total",
	} {
		if fams[name] == nil {
			t.Errorf("/metrics is missing family %s", name)
		}
	}

	// Counter totals must match the Stats() sources (single source of truth).
	hits, misses, _, _ := svc.cache.Stats()
	if got := fams["pcwl_doccache_hits_total"].Series[0].Value; got != float64(hits) {
		t.Errorf("doccache hits: /metrics %v, Stats %d", got, hits)
	}
	if got := fams["pcwl_doccache_misses_total"].Series[0].Value; got != float64(misses) {
		t.Errorf("doccache misses: /metrics %v, Stats %d", got, misses)
	}
	for _, ex := range svc.dfk.ExecutorStats() {
		found := false
		for _, s := range fams["pcwl_executor_outstanding"].Series {
			for _, l := range s.Labels {
				if l.Name == "executor" && l.Value == ex.Label {
					found = true
					if s.Value != float64(ex.Outstanding) {
						t.Errorf("executor %s outstanding: /metrics %v, Stats %d", ex.Label, s.Value, ex.Outstanding)
					}
				}
			}
		}
		if !found {
			t.Errorf("executor %s missing from pcwl_executor_outstanding", ex.Label)
		}
	}
}

// TestMetricsDisabled checks Options.DisableMetrics removes the route.
func TestMetricsDisabled(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 1, DisableMetrics: true})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /metrics status = %d, want 404", resp.StatusCode)
	}
}

// TestStatsRegistryParity is the /healthz refactor gate: Stats() is now
// projected from the obs registry; on a quiesced service it must equal the
// old hand-assembled shape, field for field.
func TestStatsRegistryParity(t *testing.T) {
	svc, dfk := newTestService(t, Options{Workers: 3})
	snap, err := svc.Submit(SubmitRequest{
		Source: []byte(twoStepWorkflow),
		Inputs: yamlx.MapOf("message", "parity"),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, snap.ID)

	got := svc.Stats()

	// The old hand-assembled shape, straight from the component sources.
	hits, misses, size, bytes := svc.cache.Stats()
	queued, running := svc.sched.Depths()
	want := Stats{
		Runs:        svc.store.Counts(),
		Queued:      queued,
		Running:     running,
		Workers:     3,
		CacheHits:   hits,
		CacheMisses: misses,
		CacheSize:   size,
		CacheBytes:  bytes,
		Executors:   dfk.ExecutorStats(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry-projected Stats diverged from hand-assembled shape:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunSpans drives a two-step workflow and checks the run→step→task span
// tree served alongside /runs/{id}/events.
func TestRunSpans(t *testing.T) {
	srv, svc := startTestServer(t, 2)
	snap, err := svc.Submit(SubmitRequest{
		Source: []byte(twoStepWorkflow),
		Inputs: yamlx.MapOf("message", "trace me"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, svc, snap.ID); final.State != RunSucceeded {
		t.Fatalf("run state = %v (error %q)", final.State, final.Error)
	}

	var payload struct {
		RunID  string `json:"runId"`
		Events []struct {
			State       string  `json:"state"`
			WaitSeconds float64 `json:"waitSeconds"`
			ExecSeconds float64 `json:"execSeconds"`
		} `json:"events"`
		Spans []struct {
			Trace  string            `json:"trace"`
			ID     string            `json:"id"`
			Parent string            `json:"parent"`
			Name   string            `json:"name"`
			Kind   string            `json:"kind"`
			Attrs  map[string]string `json:"attrs"`
		} `json:"spans"`
	}
	getJSON(t, srv.URL+"/runs/"+snap.ID+"/events", &payload)

	kinds := map[string]int{}
	stepIDs := map[string]bool{}
	for _, sp := range payload.Spans {
		kinds[sp.Kind]++
		if sp.Trace != snap.ID {
			t.Errorf("span %s has trace %q, want %q", sp.ID, sp.Trace, snap.ID)
		}
		switch sp.Kind {
		case "run":
			if sp.ID != "run" || sp.Parent != "" {
				t.Errorf("run span shape: %+v", sp)
			}
			if sp.Attrs["state"] != "succeeded" {
				t.Errorf("run span state = %q", sp.Attrs["state"])
			}
		case "step":
			if sp.Parent != "run" {
				t.Errorf("step span %s parent = %q, want run", sp.ID, sp.Parent)
			}
			stepIDs[sp.ID] = true
		case "task":
			if !strings.HasPrefix(sp.Parent, "step-") {
				t.Errorf("task span %s parent = %q", sp.ID, sp.Parent)
			}
		}
	}
	if kinds["run"] != 1 {
		t.Errorf("want exactly 1 run span, got %d", kinds["run"])
	}
	if kinds["step"] == 0 || kinds["task"] == 0 {
		t.Errorf("span tree incomplete: %v", kinds)
	}
	// Every task span's parent step must exist.
	for _, sp := range payload.Spans {
		if sp.Kind == "task" && !stepIDs[sp.Parent] {
			t.Errorf("task span %s has no parent step span %q", sp.ID, sp.Parent)
		}
	}
	// The event stream gained timing: at least one terminal event carries a
	// positive execSeconds.
	sawExec := false
	for _, ev := range payload.Events {
		if ev.State == "exec_done" && ev.ExecSeconds > 0 {
			sawExec = true
		}
	}
	if !sawExec {
		t.Error("no exec_done event carries execSeconds timing")
	}
}

// TestTracerForgottenWithRun checks run eviction drops the run's event index,
// the one store its spans are derived from.
func TestTracerForgottenWithRun(t *testing.T) {
	svc, dfk := newTestService(t, Options{Workers: 1, RetainRuns: 1})
	var last RunSnapshot
	for i := 0; i < 3; i++ {
		snap, err := svc.Submit(SubmitRequest{
			Source: []byte(echoTool),
			Inputs: yamlx.MapOf("message", "evict"),
		})
		if err != nil {
			t.Fatal(err)
		}
		last = waitTerminal(t, svc, snap.ID)
	}
	if n := dfk.IndexStats().Labels; n > 1 {
		t.Errorf("DFK retains %d run histories, retention 1 should bound it", n)
	}
	if spans, ok := svc.Spans(last.ID); !ok || len(spans) == 0 {
		t.Errorf("latest run lost its spans (ok=%v, %d spans)", ok, len(spans))
	}
}

// lockedBuffer is a log sink the service's goroutines write while the test
// reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSpanDebugLog checks the debug "span" log line: a logger enabled for
// debug gets one record per finished task, naming the task span that
// /runs/{id}/events derives; an info-level logger gets none.
func TestSpanDebugLog(t *testing.T) {
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo} {
		var buf lockedBuffer
		logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: level}))
		svc, _ := newTestService(t, Options{Workers: 1, Logger: logger})
		snap, err := svc.Submit(SubmitRequest{Source: []byte(twoStepWorkflow), Inputs: yamlx.MapOf("message", "log me")})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, svc, snap.ID)
		var logged []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var rec struct {
				Msg, RunID, Span, Kind string
				DurSeconds             float64
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line %q: %v", line, err)
			}
			if rec.Msg != "span" {
				continue
			}
			if rec.RunID != snap.ID || rec.Kind != "task" || rec.DurSeconds <= 0 {
				t.Errorf("span record %s", line)
			}
			logged = append(logged, rec.Span)
		}
		var want []string
		if level == slog.LevelDebug {
			spans, _ := svc.Spans(snap.ID)
			for _, sp := range spans {
				if sp.Kind == obs.KindTask {
					want = append(want, sp.ID)
				}
			}
		}
		if !reflect.DeepEqual(logged, want) {
			t.Errorf("level %v: span records %v, want %v", level, logged, want)
		}
	}
}
