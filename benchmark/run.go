package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

const walShards = 4

// binaries are built from the working tree, never taken from PATH.
var binaries = []string{"parsl-cwl-serve", "parsl-cwl-worker", "imgtool"}

// env is what every workload of one invocation shares.
type env struct {
	nproc  int
	seed   int64
	root   string // the work root, inside the checkout
	dir    string // scratch directory of the workload in hand, under root
	binDir string
	buildS float64

	// Generated inputs of the workload in hand.
	images, imageSums []string
	hot               []request
	hotOutputs        []map[string]any
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// build compiles the binaries into dir; the go tool's own cache makes a
// repeat build of an unchanged tree cheap.
func build(dir string) (float64, error) {
	t0 := time.Now()
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/...: %w (run from the repository root)", err)
	}
	return time.Since(t0).Seconds(), nil
}

// plan says which phases one workload run has and how long each lasts.
type plan struct {
	coldStarts int
	warmup     time.Duration // one client, tracing off
	traced     time.Duration // one client, tracing on; 0 skips it
	window     time.Duration // nproc clients (or the open loop), tracing off
	probes     bool          // in-process probes and the durable restart
	// shortWindow marks a window that only feeds per-layer figures: with too
	// few samples for the percentile rule it reports the plain percentile of
	// what it has, where a timed window fails.
	shortWindow bool
}

// fullPlan is what `go run ./benchmark` runs per workload.
func fullPlan(window time.Duration, coldStarts int) plan {
	return plan{coldStarts: coldStarts, warmup: 2 * time.Second, traced: 4 * time.Second, window: window, probes: true}
}

// driverPlan is one run under the benchmark driver: --trace 0 spends the
// seconds on the timed window, --trace 1 splits them between the traced pass
// and a short window and adds the probes.
func driverPlan(seconds time.Duration, trace bool) plan {
	if !trace {
		return plan{coldStarts: 5, warmup: 2 * time.Second, window: seconds}
	}
	return plan{coldStarts: 1, warmup: 2 * time.Second, traced: seconds * 4 / 10, window: seconds * 4 / 10, probes: true, shortWindow: true}
}

// budgetRow is one line of the one-client latency budget.
type budgetRow struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// result is everything one workload run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	// Samples is the number of observations behind a metric, where it is
	// not one.
	Samples  map[string]int     `json:"samples"`
	Budget   []budgetRow        `json:"budget,omitempty"`
	SelfMs   map[string]float64 `json:"span_self_ms,omitempty"`
	Invalid  []string           `json:"invalid,omitempty"`
	FirstErr string             `json:"first_error,omitempty"`
}

func (r *result) set(name string, v float64, n int) {
	r.Values[name] = v
	if n > 0 {
		r.Samples[name] = n
	}
}

func (r *result) count(p *phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	if r.FirstErr == "" && p.firstErr != nil {
		r.FirstErr = p.firstErr.Error()
	}
}

func (w workload) serveArgs(e *env, dir string) []string {
	var a []string
	if w.durable {
		a = append(a, "-data-dir", filepath.Join(dir, "data"), "-wal-shards", fmt.Sprint(walShards))
	} else {
		a = append(a, "-work-dir", filepath.Join(dir, "work"))
	}
	if w.wire {
		a = append(a, "-provider", "process", "-worker-cmd", e.bin("parsl-cwl-worker"))
	}
	if w.tenants {
		a = append(a, "-tenant-config", filepath.Join(e.dir, "tenants.yml"), "-queue", fmt.Sprint(queueOpen))
	}
	return a
}

func (e *env) start(w workload, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return startServe(e.bin("parsl-cwl-serve"), dir, e.binDir, w.serveArgs(e, dir))
}

// coldStart measures exec → /healthz 200 → first run succeeded on a fresh
// directory, then stops the process.
func (e *env) coldStart(ctx context.Context, w workload, dir string, k int) (float64, *phase, error) {
	t0 := time.Now()
	srv, err := e.start(w, dir)
	if err != nil {
		return 0, nil, err
	}
	c := newClient(srv.base, e.nproc)
	defer c.close()
	if _, err := c.get(ctx, "/healthz", ""); err != nil {
		srv.kill()
		return 0, nil, err
	}
	d := &driver{e: e, w: w, c: c}
	p := &phase{}
	d.one(ctx, w.gen(e, rand.New(rand.NewSource(e.seed*1000+500+int64(k))), 800+k, 0), p)
	took := time.Since(t0).Seconds()
	if err := srv.stop(); err != nil {
		return 0, nil, err
	}
	return took, p, nil
}

// drive runs one phase: the open loop for an open workload, else clients
// closed-loop clients.
func (d *driver) drive(ctx context.Context, phaseID, clients int, dur time.Duration) *phase {
	if d.w.open {
		return d.openLoop(ctx, schedule(d.e, d.w, d.e.seed*1000+int64(phaseID), openRate, dur), dur)
	}
	return d.closedLoop(ctx, phaseID, clients, dur)
}

// runWorkload takes one workload through its plan on fresh serve processes
// and returns every metric it could measure.
func runWorkload(ctx context.Context, e *env, w workload, pl plan, tr *tracer) (*result, error) {
	res := &result{Workload: w.name, Seed: e.seed, Values: map[string]float64{}, Samples: map[string]int{}}
	// A directory of its own directly under the work root: see spreadChildren.
	dir, err := os.MkdirTemp(e.root, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	if w.images {
		if e.images, e.imageSums, err = makeImages(dir, e.seed); err != nil {
			return nil, err
		}
	}
	if w.open {
		e.hot, e.hotOutputs = hotRequests(rand.New(rand.NewSource(e.seed))), nil
	}
	if w.tenants {
		if err := os.WriteFile(filepath.Join(dir, "tenants.yml"), []byte(tenantConfig()), 0o644); err != nil {
			return nil, err
		}
	}
	res.set("loadgen.build_s", e.buildS, 0)

	var setups []float64
	for k := 0; k < pl.coldStarts; k++ {
		took, p, err := e.coldStart(ctx, w, filepath.Join(dir, fmt.Sprintf("cold-%d", k)), k)
		if err != nil {
			return nil, fmt.Errorf("cold start %d: %w", k, err)
		}
		res.count(p)
		setups = append(setups, took)
	}
	if len(setups) > 0 {
		res.set("setup_s", median(setups), len(setups))
	}

	mainDir := filepath.Join(dir, "main")
	srv, err := e.start(w, mainDir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()
	c := newClient(srv.base, e.nproc)
	defer c.close()
	d := &driver{e: e, w: w, c: c}
	if w.open {
		if err := d.prime(ctx); err != nil {
			return nil, fmt.Errorf("priming repeated pairs: %w", err)
		}
	}

	// Phase 1: one client, tracing off. Fills caches, and is the one-client
	// reference for scaling and tracing overhead.
	pid := srv.cmd.Process.Pid
	cpu0, self0, t0 := treeCPU(pid), selfCPU(), time.Now()
	warm := d.drive(ctx, 1, 1, pl.warmup)
	res.set("loadgen.one_client_busy_cores", (treeCPU(pid)-cpu0+selfCPU()-self0)/time.Since(t0).Seconds(), 0)
	res.count(warm)
	warmP50 := executedP50(warm)
	res.set("loadgen.one_client_p50_ms", warmP50, len(warm.samples))
	res.set("loadgen.one_client_runs_per_s", warm.runsPerSec(), len(warm.samples))

	// Phase 2: one client, tracing on, bracketed by two /metrics scrapes.
	if pl.traced > 0 {
		if err := tracedPass(ctx, d, tr, res, pl.traced, warmP50); err != nil {
			return nil, err
		}
	}

	// Phase 3: the timed window.
	if pl.window > 0 {
		cpu0, self0, t0 := treeCPU(pid), selfCPU(), time.Now()
		win := d.drive(ctx, 3, e.nproc, pl.window)
		wall := time.Since(t0).Seconds()
		cpu1, self1 := treeCPU(pid), selfCPU()
		res.count(win)
		if err := windowMetrics(res, win, pl.shortWindow); err != nil {
			return nil, fmt.Errorf("%s: timed window: %w", w.name, err)
		}
		res.set("cpu_ms_per_run", ratio((cpu1-cpu0)*1e3, float64(len(win.samples))), len(win.samples))
		res.set("rss_peak_mb", peakRSSMiB(pid), 0)
		res.set("loadgen.busy_cores", (cpu1-cpu0+self1-self0)/wall, 0)
		queued := win.executed(queueMs)
		res.set("service.queue_wait_window_ms", median(queued), len(queued))
		res.set("loadgen.cpu_share", (self1-self0)/(wall*float64(e.nproc)), 0)
		if res.Values["loadgen.cpu_share"] > maxLoadgenCPU {
			res.Invalid = append(res.Invalid, fmt.Sprintf("loadgen.cpu_share %.2f > %.2f: the generator, not serve, was the bottleneck", res.Values["loadgen.cpu_share"], maxLoadgenCPU))
		}
		if w.open {
			late := quantile(sortedCopy(win.lateMs), 0.95)
			res.set("loadgen.late_p95_ms", late, len(win.lateMs))
			if late > maxLateP95Ms {
				res.Invalid = append(res.Invalid, fmt.Sprintf("loadgen.late_p95_ms %.2f > %.0f: the generator ran late", late, maxLateP95Ms))
			}
		} else {
			res.set("loadgen.scaling_eff", ratio(win.runsPerSec(), float64(e.nproc)*warm.runsPerSec()), 0)
		}
	}
	res.set("failed_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)

	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if pl.probes {
		if w.durable {
			if err := replay(ctx, e, w, mainDir, res); err != nil {
				return nil, err
			}
		}
		vals, err := runProbes(e, w, filepath.Join(dir, "probe"))
		if err != nil {
			return nil, err
		}
		for name, v := range vals {
			res.set(name, v.value, v.calls)
		}
		if inproc, ok := vals["service.inproc_run_ms"]; ok {
			res.set("service.http_overhead_ms", warmP50-inproc.value, 0)
		}
		if pl.traced > 0 {
			budget(e, w, res)
		}
	}
	return res, nil
}

// executedP50 is the median run latency of the runs that executed: every run
// of a closed-loop workload, the result-cache misses of mixed_open. It is the
// one-client figure the probes and the budget table are compared with.
func executedP50(p *phase) float64 { return median(p.executed(runMs)) }

// windowMetrics derives the latency and throughput metrics of the timed
// window.
func windowMetrics(res *result, win *phase, short bool) error {
	n := len(win.samples)
	res.set("runs_per_s", win.runsPerSec(), n)
	run, admit := win.column(runMs), win.column(admitMs)
	for _, m := range []struct {
		name string
		vals []float64
		q    float64
	}{
		{"run_latency_p50_ms", run, 0.5},
		{"run_latency_p95_ms", run, 0.95},
		{"admit_latency_p50_ms", admit, 0.5},
		{"admit_latency_p95_ms", admit, 0.95},
	} {
		v, err := slicedQuantile(m.vals, m.q)
		if err != nil && short {
			// Indicative only: the sample count is printed beside it.
			v, err = quantile(sortedCopy(m.vals), m.q), nil
		}
		if err != nil {
			return err
		}
		res.set(m.name, v, n)
	}
	return nil
}

// tracedPass is the one-client pass with tracing on. Everything scraped is
// a difference between the two /metrics pages around it; no run is in flight
// at either scrape, so per-run counts divide exactly.
func tracedPass(ctx context.Context, d *driver, tr *tracer, res *result, dur time.Duration, warmP50 float64) error {
	before, _, err := scrapeMetrics(ctx, d.c)
	if err != nil {
		return err
	}
	mark := len(tr.spans)
	d.tr = tr
	p := d.drive(ctx, 2, 1, dur)
	d.tr = nil
	after, scrapeMs, err := scrapeMetrics(ctx, d.c)
	if err != nil {
		return err
	}
	res.count(p)
	runs := float64(len(p.samples))
	if runs == 0 {
		return fmt.Errorf("%s: the traced pass completed no run: %v", d.w.name, p.firstErr)
	}
	dm := delta(before, after)
	queue, exec := p.executed(queueMs), p.executed(execMs)
	n := len(p.samples)
	res.set("service.queue_wait_ms", median(queue), len(queue))
	res.set("service.run_exec_ms", median(exec), len(exec))
	res.set("service.doccache_hit_ratio", ratio(dm["pcwl_doccache_hits_total"], dm["pcwl_doccache_hits_total"]+dm["pcwl_doccache_misses_total"]), n)
	res.set("service.resultcache_hit_ratio", ratio(dm["pcwl_resultcache_hits_total"], dm["pcwl_resultcache_hits_total"]+dm["pcwl_resultcache_misses_total"]), n)
	res.set("service.shed_share", ratio(dm["pcwl_service_shed_total"], float64(p.attempted)), p.attempted)
	res.set("persist.appends_per_run", dm["pcwl_wal_appends_total"]/runs, n)
	res.set("persist.appends_per_fsync", ratio(dm["pcwl_wal_appends_total"], dm["pcwl_wal_fsync_batches_total"]), n)
	res.set("persist.journal_bytes_per_run", dm["pcwl_wal_journal_bytes"]/runs, n)
	res.set("cwlexpr.program_cache_hit_ratio", ratio(dm["pcwl_expr_program_cache_hits_total"], dm["pcwl_expr_program_cache_hits_total"]+dm["pcwl_expr_program_cache_misses_total"]), n)
	tasks := int(dm["pcwl_dfk_tasks_submitted_total"])
	res.set("parsl.tasks_per_run", dm["pcwl_dfk_tasks_submitted_total"]/runs, n)
	res.set("parsl.task_wait_ms", 1e3*ratio(dm["pcwl_dfk_task_wait_seconds_sum"], dm["pcwl_dfk_task_wait_seconds_count"]), tasks)
	res.set("parsl.task_exec_ms", 1e3*ratio(dm["pcwl_dfk_task_exec_seconds_sum"], dm["pcwl_dfk_task_exec_seconds_count"]), tasks)
	res.set("provider.roundtrip_ms", 1e3*ratio(dm["pcwl_provider_remote_roundtrip_seconds_sum"], dm["pcwl_provider_remote_roundtrip_seconds_count"]), int(dm["pcwl_provider_remote_roundtrip_seconds_count"]))
	res.set("provider.tasks_per_frame", ratio(dm["pcwl_provider_batch_tasks_sum"], dm["pcwl_provider_batch_tasks_count"]), int(dm["pcwl_provider_batch_tasks_count"]))
	res.set("provider.docs_amortized_per_run", dm["pcwl_provider_docs_amortized_total"]/runs, n)
	res.set("provider.worker_lost", dm["pcwl_htex_managers_lost_total"], 0)
	if dm["pcwl_htex_managers_lost_total"] != 0 {
		res.Invalid = append(res.Invalid, "provider.worker_lost is not 0")
	}
	res.set("obs.events_get_ms", median(d.eventsMs), len(d.eventsMs))
	res.set("obs.metrics_scrape_ms", scrapeMs, 1)
	tracedP50 := executedP50(p)
	res.set("loadgen.trace_overhead_pct", 100*ratio(tracedP50-warmP50, warmP50), n)
	res.SelfMs = selfTimeMedians(tr.spans[mark:])
	if !tr.keep {
		// Nobody will read them: do not make the generator's collector walk
		// every earlier pass's spans.
		tr.spans = tr.spans[:mark]
	}
	return nil
}

// replay restarts serve on the data directory the timed window filled and
// times exec → /healthz: the read side of persist. The restored-run count
// must be positive and is the divisor.
func replay(ctx context.Context, e *env, w workload, dir string, res *result) error {
	t0 := time.Now()
	srv, err := e.start(w, dir)
	if err != nil {
		return fmt.Errorf("%s: restart on the journal: %w", w.name, err)
	}
	c := newClient(srv.base, 1)
	defer c.close()
	body, err := c.get(ctx, "/healthz", "")
	took := ms(time.Since(t0))
	if err != nil {
		srv.kill()
		return err
	}
	var health struct {
		Stats struct {
			Persistence struct {
				RestoredRuns    int `json:"restoredRuns"`
				ResubmittedRuns int `json:"resubmittedRuns"`
			} `json:"persistence"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		srv.kill()
		return err
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("%s: after restart: %w", w.name, err)
	}
	ps := health.Stats.Persistence
	if ps.RestoredRuns == 0 || ps.ResubmittedRuns != 0 {
		return fmt.Errorf("%s: restart restored %d runs and re-enqueued %d; want every run restored as history", w.name, ps.RestoredRuns, ps.ResubmittedRuns)
	}
	res.set("persist.replay_ms_per_krun", took/float64(ps.RestoredRuns)*1000, ps.RestoredRuns)
	return nil
}

// budget lines the one-client layer figures up against the one-client run
// latency. Per-task rows count once per task on the critical path:
// stages × ⌈width ÷ executor workers⌉.
func budget(e *env, w workload, res *result) {
	v := res.Values
	critical := float64(w.stages) * math.Ceil(float64(w.width)/float64(e.nproc))
	rows := []budgetRow{
		{"service.http_overhead_ms", v["service.http_overhead_ms"]},
		{"service.submit_ms", v["service.submit_ms"] + v["service.submit_durable_ms"]},
		{"service.queue_wait_ms", v["service.queue_wait_ms"]},
	}
	if critical > 0 {
		rows = append(rows, budgetRow{fmt.Sprintf("parsl.task_wait_ms x%.0f", critical), v["parsl.task_wait_ms"] * critical})
		switch {
		case w.wire:
			rows = append(rows, budgetRow{fmt.Sprintf("provider.roundtrip_ms x%.0f", critical), v["provider.roundtrip_ms"] * critical})
		case v["runner.run_tool_ms"] > 0:
			rows = append(rows,
				budgetRow{"runner.spawn_floor_ms", v["runner.spawn_floor_ms"] * critical},
				budgetRow{"runner.tool_overhead_ms", v["runner.tool_overhead_ms"] * critical})
		default:
			rows = append(rows, budgetRow{fmt.Sprintf("parsl.task_exec_ms x%.0f", critical), v["parsl.task_exec_ms"] * critical})
		}
	}
	total := v["loadgen.one_client_p50_ms"]
	rest := total
	for _, r := range rows {
		rest -= r.Ms
	}
	res.Budget = append(rows, budgetRow{"unattributed", rest}, budgetRow{"one-client run_latency_p50_ms", total})
	res.set("budget.unattributed_pct", 100*ratio(rest, total), 0)
}
