// Benchmarks regenerating every figure in the paper's evaluation (§VI), plus
// the ablations listed below. Each figure has one benchmark per
// series point-set; `go test -bench=.` prints the measured values and the
// simulated makespans are reported as the custom metric "makespan_s".
//
//	BenchmarkFig1a*   — Fig. 1a (3-node image workflow sweep)
//	BenchmarkFig1b*   — Fig. 1b (single-node sweep)
//	BenchmarkFig2*    — Fig. 2 (expression scaling)
//	BenchmarkJSExpr / BenchmarkPyExpr — abl-expr (real interpreter costs)
//	BenchmarkExecutorDispatch*        — abl-overhead (live dispatch rates)
//	BenchmarkFunctionalPipeline       — end-to-end CWLApp chain on real files
package cwlparsl

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cwl"
	"repro/internal/cwlexpr"
	"repro/internal/obs"
	"repro/internal/parsl"
	"repro/internal/yamlx"
)

// benchFig1 reports the simulated makespan for one engine/topology/size.
func benchFig1(b *testing.B, kind bench.EngineKind, topo bench.Topology, images int) {
	b.Helper()
	var last bench.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := bench.SimulateImageWorkflow(kind, topo, images, bench.DefaultImageModel())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MakespanSec, "makespan_s")
	b.ReportMetric(last.Utilization*100, "util_%")
}

func BenchmarkFig1a(b *testing.B) {
	for _, kind := range []bench.EngineKind{bench.EngineCWLTool, bench.EngineToilSlurm, bench.EngineParslHTEX} {
		for _, n := range []int{100, 500, 1000} {
			b.Run(fmt.Sprintf("%s/images=%d", kind, n), func(b *testing.B) {
				benchFig1(b, kind, bench.PaperThreeNode(), n)
			})
		}
	}
}

func BenchmarkFig1b(b *testing.B) {
	for _, kind := range []bench.EngineKind{bench.EngineCWLTool, bench.EngineToilSlurm, bench.EngineParslThreads} {
		for _, n := range []int{100, 500, 1000} {
			b.Run(fmt.Sprintf("%s/images=%d", kind, n), func(b *testing.B) {
				benchFig1(b, kind, bench.PaperSingleNode(), n)
			})
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for _, m := range bench.ExprModels() {
		for _, w := range []int{2, 64, 1024} {
			m, w := m, w
			b.Run(fmt.Sprintf("%s/words=%d", m.Name, w), func(b *testing.B) {
				var total float64
				for i := 0; i < b.N; i++ {
					total = m.Total(w)
				}
				b.ReportMetric(total, "modelled_s")
			})
		}
	}
}

// exprBench measures real interpreter throughput on the paper's
// capitalize_words expression (abl-expr).
func exprBench(b *testing.B, engine string, words int) {
	b.Helper()
	msg := bench.WordMessage(words)
	ctx := cwlexpr.Context{Inputs: yamlx.MapOf("message", msg)}
	var eng *cwlexpr.Engine
	var expr string
	var err error
	if engine == "js" {
		eng, err = cwlexpr.NewEngine(cwl.Requirements{
			InlineJavascript: true,
			JSExpressionLib: []string{`
				function capitalize_words(message) {
					return message.split(" ").map(function(w) {
						if (w.length == 0) { return w; }
						return w.charAt(0).toUpperCase() + w.slice(1).toLowerCase();
					}).join(" ");
				}`},
		})
		expr = "$(capitalize_words(inputs.message))"
	} else {
		eng, err = cwlexpr.NewEngine(cwl.Requirements{
			InlinePython: true,
			PyExpressionLib: []string{
				"def capitalize_words(message):\n    return message.title()\n",
			},
		})
		expr = `f"{capitalize_words($(inputs.message))}"`
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Eval(expr, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSExpr(b *testing.B) {
	for _, w := range []int{2, 64, 1024} {
		b.Run(fmt.Sprintf("words=%d", w), func(b *testing.B) { exprBench(b, "js", w) })
	}
}

func BenchmarkPyExpr(b *testing.B) {
	for _, w := range []int{2, 64, 1024} {
		b.Run(fmt.Sprintf("words=%d", w), func(b *testing.B) { exprBench(b, "py", w) })
	}
}

// BenchmarkExecutorDispatch measures live per-task dispatch cost through the
// two Parsl executors (abl-overhead's measured counterpart).
func BenchmarkExecutorDispatch(b *testing.B) {
	cases := []struct {
		name string
		mk   func() parsl.Executor
	}{
		{"threads", func() parsl.Executor { return parsl.NewThreadPoolExecutor("threads", 4) }},
		{"htex", func() parsl.Executor {
			return parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
				Label: "htex", WorkersPerNode: 4, MaxBlocks: 1, InitBlocks: 1,
			})
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			dfk, err := parsl.Load(parsl.Config{Executors: []parsl.Executor{c.mk()}})
			if err != nil {
				b.Fatal(err)
			}
			defer dfk.Cleanup()
			app := parsl.NewGoApp("noop", func(parsl.Args) (any, error) { return nil, nil })
			b.ResetTimer()
			futs := make([]*parsl.AppFuture, 0, b.N)
			for i := 0; i < b.N; i++ {
				futs = append(futs, dfk.Submit(app, parsl.Args{}, parsl.CallOpts{}))
			}
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFunctionalPipeline runs the real echo→cat CWLApp chain end to end
// (files on disk, subprocesses), measuring the integration's live overhead.
func BenchmarkFunctionalPipeline(b *testing.B) {
	dir := b.TempDir()
	echoCWL := `cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message: {type: string, inputBinding: {position: 1}}
outputs:
  output: {type: stdout}
stdout: out.txt
`
	catCWL := `cwlVersion: v1.2
class: CommandLineTool
baseCommand: cat
inputs:
  input_file: {type: File, inputBinding: {position: 1}}
outputs:
  output: {type: stdout}
stdout: cat.txt
`
	echoPath := filepath.Join(dir, "echo.cwl")
	catPath := filepath.Join(dir, "cat.cwl")
	if err := os.WriteFile(echoPath, []byte(echoCWL), 0o644); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(catPath, []byte(catCWL), 0o644); err != nil {
		b.Fatal(err)
	}
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 8)},
		RunDir:    dir,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dfk.Cleanup()
	echo, err := core.NewCWLApp(dfk, echoPath)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := core.NewCWLApp(dfk, catPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f1 := echo.Call(parsl.Args{"message": "bench"})
		f2 := cat.Call(parsl.Args{"input_file": f1.Output(0)})
		if _, err := f2.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSubmission measures the submission service's end-to-end
// submit→complete latency at varying run concurrency — the baseline perf
// trajectory for the service path (queue + store + doc cache + runner over a
// shared DFK). Each op submits `conc` echo runs and waits for all of them.
func BenchmarkServiceSubmission(b *testing.B) {
	src := []byte(`cwlVersion: v1.2
class: CommandLineTool
baseCommand: [true]
inputs: {}
outputs: {}
`)
	for _, conc := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("concurrent=%d", conc), func(b *testing.B) {
			dir := b.TempDir()
			dfk, err := parsl.Load(parsl.Config{
				Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 16)},
				RunDir:    dir,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer dfk.Cleanup()
			svc, err := NewService(dfk, ServiceOptions{Workers: 8, QueueDepth: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close(context.Background())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]string, conc)
				for j := 0; j < conc; j++ {
					snap, err := svc.Submit(SubmitRequest{Source: src})
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = snap.ID
				}
				for _, id := range ids {
					snap, err := svc.Wait(context.Background(), id)
					if err != nil {
						b.Fatal(err)
					}
					if snap.State != RunSucceeded {
						b.Fatalf("run %s: %v (%s)", id, snap.State, snap.Error)
					}
				}
			}
			b.ReportMetric(float64(conc)*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}

	// The multi-tenant variant: 8 authenticated tenants submitting through
	// the fair-share scheduler. Comparing against concurrent=8 above isolates
	// the tenancy overhead (registry lookup, per-tenant sub-queues, weighted
	// round-robin) at the same offered load.
	b.Run("tenants=8", func(b *testing.B) {
		const tenants = 8
		members := make([]Tenant, tenants)
		for i := range members {
			members[i] = Tenant{Name: fmt.Sprintf("t%d", i), Key: fmt.Sprintf("key-%d", i), Weight: 1 + i%3}
		}
		reg, err := NewTenantRegistry(members...)
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		dfk, err := parsl.Load(parsl.Config{
			Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 16)},
			RunDir:    dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer dfk.Cleanup()
		svc, err := NewService(dfk, ServiceOptions{Workers: 8, QueueDepth: -1, Tenants: reg})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close(context.Background())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids := make([]string, tenants)
			for j := 0; j < tenants; j++ {
				snap, err := svc.Submit(SubmitRequest{Source: src, Tenant: members[j].Name})
				if err != nil {
					b.Fatal(err)
				}
				ids[j] = snap.ID
			}
			for _, id := range ids {
				snap, err := svc.Wait(context.Background(), id)
				if err != nil {
					b.Fatal(err)
				}
				if snap.State != RunSucceeded {
					b.Fatalf("run %s: %v (%s)", id, snap.State, snap.Error)
				}
			}
		}
		b.ReportMetric(float64(tenants)*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
	})
}

// BenchmarkHTEXThroughput measures end-to-end task throughput through the
// pilot-job executor at varying block counts — the companion baseline to
// BenchmarkServiceSubmission for the executor path (interchange → manager
// pull loop → worker pool, with the heartbeat monitor running).
func BenchmarkHTEXThroughput(b *testing.B) {
	for _, blocks := range []int{1, 4} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
				Label: "htex", WorkersPerNode: 4, MaxBlocks: blocks, InitBlocks: blocks,
			})
			dfk, err := parsl.Load(parsl.Config{Executors: []parsl.Executor{htex}})
			if err != nil {
				b.Fatal(err)
			}
			defer dfk.Cleanup()
			app := parsl.NewGoApp("noop", func(parsl.Args) (any, error) { return nil, nil })
			b.ResetTimer()
			futs := make([]*parsl.AppFuture, 0, b.N)
			for i := 0; i < b.N; i++ {
				futs = append(futs, dfk.Submit(app, parsl.Args{}, parsl.CallOpts{}))
			}
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// BenchmarkEventsFor measures per-label event retrieval on a DFK shared by
// many submission groups — the hot path behind the service's
// /runs/{id}/events endpoint, which must stay O(per-run) as the shared log
// grows.
func BenchmarkEventsFor(b *testing.B) {
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 8)},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dfk.Cleanup()
	app := parsl.NewGoApp("noop", func(parsl.Args) (any, error) { return nil, nil })
	const labels = 64
	futs := make([]*parsl.AppFuture, 0, labels*16)
	for i := 0; i < labels*16; i++ {
		label := fmt.Sprintf("run-%03d", i%labels)
		futs = append(futs, dfk.Submit(app, parsl.Args{}, parsl.CallOpts{Label: label}))
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evs := dfk.EventsFor(fmt.Sprintf("run-%03d", i%labels)); len(evs) == 0 {
			b.Fatal("no events for label")
		}
	}
}

// benchHotPath measures one workflow execution per op over the inline
// submitter — pure engine overhead (expression compilation, engine
// construction, dataflow scheduling), no subprocesses.
func benchHotPath(b *testing.B, kind string, n int) {
	b.Helper()
	wf, inputs, err := bench.BuildHotPathWorkflow(kind, n)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up once so one-time costs (doc parse already excluded, shared
	// engine construction) don't skew the steady-state number.
	if err := bench.ExecuteHotPath(wf, inputs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.ExecuteHotPath(wf, inputs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkExprScatter is the expression-heavy scatter workload: one step,
// scatter width 1024, a valueFrom that calls expressionLib functions. The
// compile-once hot path (cached expression programs + shared engines) is
// what this measures.
func BenchmarkExprScatter(b *testing.B) {
	benchHotPath(b, "expr-scatter", 1024)
}

// BenchmarkDeepChain is the scheduler workload: a 500-step linear chain
// where per-completion readiness discovery dominates.
func BenchmarkDeepChain(b *testing.B) {
	benchHotPath(b, "deep-chain", 500)
}

// BenchmarkWideFanIn is the fan-in workload: 256 independent producers
// feeding one merge_flattened consumer.
func BenchmarkWideFanIn(b *testing.B) {
	benchHotPath(b, "wide-fanin", 256)
}

// BenchmarkYAMLDecode measures CWL document parse cost (load-time overhead
// of the import path).
func BenchmarkYAMLDecode(b *testing.B) {
	doc := strings.Repeat(`step:
  run: tool.cwl
  in:
    x: input
  out: [y]
`, 50)
	for i := 0; i < b.N; i++ {
		if _, err := yamlx.Decode([]byte(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// providerBatchTasks is the per-op workload of the provider throughput
// benchmarks: each op pushes this many concurrent echo tasks through the
// worker transport. Batching per op — the same convention as
// BenchmarkMetricsHotPath — makes the single-shot CI run (-benchtime=1x)
// measure sustained dispatch throughput rather than one wakeup chain's
// scheduling jitter, and it exercises the frame-coalescing path the batch
// dispatcher exists for.
const providerBatchTasks = 256

// BenchmarkProcessProviderThroughput measures the pipe-protocol overhead of
// process-isolated workers: echo tasks dispatched through an HTEX whose
// blocks are real worker subprocesses (this test binary re-executed in
// worker mode). Each op is a providerBatchTasks-task concurrent batch.
// Gated against BENCH_baseline.json alongside the in-process HTEX numbers,
// so protocol or framing regressions fail CI.
func BenchmarkProcessProviderThroughput(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	htex, prov, err := bench.BuildProviderHTEX("process",
		[]string{exe}, []string{"PARSL_CWL_WORKER_PROCESS=1"}, 8)
	if err != nil {
		b.Fatal(err)
	}
	if err := htex.Start(); err != nil {
		b.Fatal(err)
	}
	defer htex.Shutdown()
	// Warm up so worker spawn + session negotiation don't skew the sustained
	// number the gate watches (same convention as benchHotPath).
	if err := bench.RunEchoBatch(htex, 16); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.RunEchoBatch(htex, providerBatchTasks); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := int64(b.N) * providerBatchTasks
	if prov.RemoteTasks() < total {
		b.Fatalf("only %d of %d tasks crossed the worker pipe", prov.RemoteTasks(), total)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkNetProviderThroughput measures the network fabric's overhead:
// echo tasks dispatched through an HTEX whose single block is a worker
// dialing the engine's interchange over loopback TCP with shared-secret
// authentication. Each op is a providerBatchTasks-task concurrent batch.
// The companion to BenchmarkProcessProviderThroughput for the socket
// transport, gated against BENCH_baseline.json the same way.
func BenchmarkNetProviderThroughput(b *testing.B) {
	htex, prov, err := bench.BuildNetHTEX(8)
	if err != nil {
		b.Fatal(err)
	}
	if err := htex.Start(); err != nil {
		b.Fatal(err)
	}
	defer htex.Shutdown()
	// Warm up so the TCP dial + hello/ack exchange don't skew the sustained
	// number the gate watches.
	if err := bench.RunEchoBatch(htex, 16); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.RunEchoBatch(htex, providerBatchTasks); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := int64(b.N) * providerBatchTasks
	if prov.RemoteTasks() < total {
		b.Fatalf("only %d of %d tasks crossed the network session", prov.RemoteTasks(), total)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkMetricsHotPath gates the cost of the obs instrumentation the
// engine layers now run on every task event: a plain counter increment, a
// labeled-counter lookup+increment, and a histogram observation. Each op is
// a batch of 100k update triples so the single-shot CI run (-benchtime=1x)
// still measures real work rather than timer noise.
func BenchmarkMetricsHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_ops_total", "Plain counter.")
	vec := reg.CounterVec("bench_ops_by_state_total", "Labeled counter.", "state")
	hist := reg.Histogram("bench_latency_seconds", "Histogram.", nil)
	const batch = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			ctr.Inc()
			vec.With("launched").Inc()
			hist.Observe(float64(j%1000) / 1000)
		}
	}
	b.ReportMetric(3*batch, "updates/op")
}
