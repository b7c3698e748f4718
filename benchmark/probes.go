package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cwl"
	"repro/internal/cwlexpr"
	"repro/internal/parsl"
	"repro/internal/persist"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/yamlx"
)

// A probe times public functions of one package in-process, on inputs the
// workload's own generator made. It takes up to probeCalls calls and stops
// early, once probeMinCalls are in, when probeBudget is spent: the
// microsecond probes always reach probeCalls, the ones that fork a process
// per call stop at the budget. The median is reported with the call count.
const (
	probeCalls    = 1000
	probeMinCalls = 30
	probeBudget   = 700 * time.Millisecond
)

// probeValue is one per-layer figure from a probe.
type probeValue struct {
	value float64
	calls int
}

// probeCtx is what a probe needs: the workload, a scratch directory, a
// source of generated requests and a place for results.
type probeCtx struct {
	e   *env
	w   workload
	dir string
	rng *rand.Rand
	n   int
	out map[string]probeValue
}

// next generates the next request.
func (p *probeCtx) next() request {
	p.n++
	return p.w.gen(p.e, p.rng, 900, p.n)
}

// timeCalls times f call by call and returns the durations in seconds.
func timeCalls(f func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for i := 0; i < probeCalls; i++ {
		if i >= probeMinCalls && time.Since(start) > probeBudget {
			break
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

func (p *probeCtx) record(name string, scale float64, secs []float64) {
	p.out[name] = probeValue{value: median(secs) * scale, calls: len(secs)}
}

func toInputs(v map[string]any) (*yamlx.Map, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec, err := yamlx.DecodeJSON(raw)
	if err != nil {
		return nil, err
	}
	m, _ := dec.(*yamlx.Map)
	return m, nil
}

func parseDoc(src string) (cwl.Document, error) {
	doc, err := cwl.ParseBytes([]byte(src), "", nil)
	if err != nil {
		return nil, err
	}
	if _, err := cwl.Validate(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// echoTool is the parsed echo CommandLineTool the runner probes execute.
func echoTool() (*cwl.CommandLineTool, error) {
	doc, err := parseDoc(echoDoc("echo"))
	if err != nil {
		return nil, err
	}
	return doc.(*cwl.CommandLineTool), nil
}

const (
	msScale = 1e3
	usScale = 1e6
)

// probes maps each probe to its implementation. A probe may report several
// metrics; the name it is listed under is the first.
var probes = map[string]func(*probeCtx) error{
	"service.submit_ms":         func(p *probeCtx) error { return probeService(p, "service.submit_ms") },
	"service.submit_durable_ms": func(p *probeCtx) error { return probeService(p, "service.submit_durable_ms") },
	"tenant.authenticate_us":    probeTenant,
	"persist.append_ms":         probePersist,
	"yamlx.decode_us":           probeYAML,
	"cwl.parse_validate_us":     probeParse,
	"runner.build_step_index_us": func(p *probeCtx) error {
		doc, err := parseDoc(p.next().doc)
		if err != nil {
			return err
		}
		wf := doc.(*cwl.Workflow)
		secs, err := timeCalls(func() error {
			if runner.BuildStepIndex(wf) == nil {
				return fmt.Errorf("nil step index")
			}
			return nil
		})
		p.record("runner.build_step_index_us", usScale, secs)
		return err
	},
	"cwlexpr.eval_us":       probeExpr,
	"runner.run_tool_ms":    probeRunTool,
	"runner.image_tool_ms":  probeImageTool,
	"runner.workflow_ms":    probeWorkflow,
	"core.runner_run_ms":    probeCoreRunner,
	"parsl.htex_task_us":    func(p *probeCtx) error { return probeHTEX(p, "parsl.htex_task_us", "local") },
	"provider.pipe_task_us": func(p *probeCtx) error { return probeHTEX(p, "provider.pipe_task_us", "process") },
}

// newService builds, in-process, the service serve would build for the
// workload's flags (cmd/parsl-cwl-serve newService), so the probe and the
// live process differ only by HTTP and the process boundary.
func newService(e *env, w workload, dir string) (*parsl.DFK, *service.Service, error) {
	spec := parsl.DefaultConfigSpec()
	opts := service.Options{Workers: 8, ResultCacheSize: 1024, WorkRoot: filepath.Join(dir, "work")}
	if w.durable {
		spec.Memoize = true
		opts.DataDir = filepath.Join(dir, "data")
		opts.WALShards = walShards
		opts.WorkRoot = filepath.Join(opts.DataDir, "work")
	}
	var (
		cfg parsl.Config
		err error
	)
	if w.wire {
		spec.Executor = "htex"
		spec.WorkerCmd = e.bin("parsl-cwl-worker")
		cfg, opts.ProviderExecutors, err = spec.BuildMulti([]string{"process"})
	} else {
		cfg, err = spec.Build()
	}
	if err != nil {
		return nil, nil, err
	}
	if w.tenants {
		opts.QueueDepth = queueOpen
		if opts.Tenants, err = tenant.Parse([]byte(tenantConfig())); err != nil {
			return nil, nil, err
		}
	}
	dfk, err := parsl.Load(cfg)
	if err != nil {
		return nil, nil, err
	}
	svc, err := service.New(dfk, opts)
	if err != nil {
		dfk.Cleanup()
		return nil, nil, err
	}
	return dfk, svc, nil
}

// probeService times Service.Submit alone and Submit+Wait together; the
// second is what the one-client HTTP latency is compared with.
func probeService(p *probeCtx, name string) error {
	dfk, svc, err := newService(p.e, p.w, filepath.Join(p.dir, "svc"))
	if err != nil {
		return err
	}
	defer dfk.Cleanup()
	defer svc.Close(context.Background())
	var submit []float64
	ctx := context.Background()
	total, err := timeCalls(func() error {
		req := p.next()
		inputs, err := toInputs(req.inputs)
		if err != nil {
			return err
		}
		sr := service.SubmitRequest{Source: []byte(req.doc), Inputs: inputs}
		if req.tenant >= 0 {
			sr.Tenant = fmt.Sprintf("t%d", req.tenant)
		}
		t0 := time.Now()
		snap, err := svc.Submit(sr)
		submit = append(submit, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if snap, err = svc.Wait(ctx, snap.ID); err != nil {
			return err
		}
		if snap.State != service.RunSucceeded {
			return fmt.Errorf("probe run %s: %s %s", snap.ID, snap.State, snap.Error)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.record(name, msScale, submit)
	p.record("service.inproc_run_ms", msScale, total)
	return nil
}

func probeTenant(p *probeCtx) error {
	reg, err := tenant.Parse([]byte(tenantConfig()))
	if err != nil {
		return err
	}
	i := 0
	secs, err := timeCalls(func() error {
		i++
		if _, ok := reg.Authenticate(tenantKey(i % tenantsN)); !ok {
			return fmt.Errorf("key %d did not authenticate", i%tenantsN)
		}
		return nil
	})
	p.record("tenant.authenticate_us", usScale, secs)
	return err
}

// probePersist appends from nproc goroutines at once, as concurrent runs do.
func probePersist(p *probeCtx) error {
	log, err := persist.OpenSharded(filepath.Join(p.dir, "wal"), walShards, persist.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := map[string]string{"id": "run-000001", "state": "running", "doc": echoDoc("echo")}
	var (
		mu   sync.Mutex
		all  []float64
		wg   sync.WaitGroup
		fail error
	)
	for g := 0; g < p.e.nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []float64
			for i := 0; i < probeCalls/p.e.nproc; i++ {
				t0 := time.Now()
				err := log.Append(fmt.Sprintf("run-%d-%d", g, i), "run", payload)
				mine = append(mine, time.Since(t0).Seconds())
				if err != nil {
					mu.Lock()
					fail = err
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if fail != nil {
		return fail
	}
	p.record("persist.append_ms", msScale, all)
	return nil
}

func probeYAML(p *probeCtx) error {
	src := []byte(p.next().doc)
	secs, err := timeCalls(func() error {
		_, err := yamlx.Decode(src)
		return err
	})
	p.record("yamlx.decode_us", usScale, secs)
	return err
}

func probeParse(p *probeCtx) error {
	src := p.next().doc
	secs, err := timeCalls(func() error {
		_, err := parseDoc(src)
		return err
	})
	p.record("cwl.parse_validate_us", usScale, secs)
	return err
}

// probeExpr evaluates the workload's ExpressionTool body on a warm shared
// engine, as runner does for every expr_mem run.
func probeExpr(p *probeCtx) error {
	doc, err := parseDoc(p.next().doc)
	if err != nil {
		return err
	}
	et, ok := doc.(*cwl.Workflow).Steps[0].Run.(*cwl.ExpressionTool)
	if !ok {
		return fmt.Errorf("%s: first step is not an ExpressionTool", p.w.name)
	}
	secs, err := timeCalls(func() error {
		inputs, err := toInputs(p.next().inputs)
		if err != nil {
			return err
		}
		eng, err := cwlexpr.SharedEngine(et.Requirements)
		if err != nil {
			return err
		}
		_, err = eng.Eval(et.Expression, cwlexpr.Context{Inputs: inputs})
		return err
	})
	p.record("cwlexpr.eval_us", usScale, secs)
	return err
}

// probeRunTool times ToolRunner.RunTool on the echo tool and, as the floor
// under it, a bare os/exec of the same argv with stdout sent to a file.
func probeRunTool(p *probeCtx) error {
	tool, err := echoTool()
	if err != nil {
		return err
	}
	tr := &runner.ToolRunner{WorkRoot: filepath.Join(p.dir, "tool")}
	var argv []string
	run, err := timeCalls(func() error {
		res, err := tr.RunTool(tool, yamlx.MapOf("message", p.next().want[0]), runner.RunOpts{})
		if err == nil {
			argv = res.Argv
		}
		return err
	})
	if err != nil {
		return err
	}
	// A fresh stdout file per call, as each job directory gives RunTool:
	// truncating a file that has blocks costs more than creating one.
	sinks := filepath.Join(p.dir, "floor")
	if err := os.MkdirAll(sinks, 0o755); err != nil {
		return err
	}
	n := 0
	floor, err := timeCalls(func() error {
		n++
		f, err := os.Create(filepath.Join(sinks, fmt.Sprintf("%d.txt", n)))
		if err != nil {
			return err
		}
		defer f.Close()
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Stdout = f
		return cmd.Run()
	})
	if err != nil {
		return err
	}
	p.record("runner.run_tool_ms", msScale, run)
	p.record("runner.spawn_floor_ms", msScale, floor)
	p.out["runner.tool_overhead_ms"] = probeValue{
		value: p.out["runner.run_tool_ms"].value - p.out["runner.spawn_floor_ms"].value,
		calls: min(len(run), len(floor)),
	}
	return nil
}

func probeImageTool(p *probeCtx) error {
	doc, err := parseDoc(imageDoc)
	if err != nil {
		return err
	}
	tool := doc.(*cwl.Workflow).Steps[0].Run.(*cwl.CommandLineTool)
	tr := &runner.ToolRunner{WorkRoot: filepath.Join(p.dir, "image")}
	inputs := yamlx.MapOf(
		"size", int64(imageResize),
		"input_image", yamlx.MapOf("class", "File", "path", p.e.images[0]),
		"output_image", "resized.png",
	)
	secs, err := timeCalls(func() error {
		_, err := tr.RunTool(tool, inputs, runner.RunOpts{})
		return err
	})
	p.record("runner.image_tool_ms", msScale, secs)
	return err
}

// probeWorkflow runs the workload's workflow over a submitter that completes
// every tool job at once: what remains is runner's own scatter and dataflow
// work.
func probeWorkflow(p *probeCtx) error {
	doc, err := parseDoc(p.next().doc)
	if err != nil {
		return err
	}
	wf := doc.(*cwl.Workflow)
	eng := &runner.WorkflowEngine{Submitter: bench.InlineSubmitter{}, Index: runner.BuildStepIndex(wf)}
	secs, err := timeCalls(func() error {
		inputs, err := toInputs(p.next().inputs)
		if err != nil {
			return err
		}
		_, err = eng.Execute(wf, inputs)
		return err
	})
	p.record("runner.workflow_ms", msScale, secs)
	return err
}

// probeCoreRunner runs the echo tool through core.Runner on a thread-pool
// DFK; over runner.run_tool_ms it adds exactly the parsl DFK and executor.
func probeCoreRunner(p *probeCtx) error {
	tool, err := echoTool()
	if err != nil {
		return err
	}
	cfg, err := parsl.DefaultConfigSpec().Build()
	if err != nil {
		return err
	}
	dfk, err := parsl.Load(cfg)
	if err != nil {
		return err
	}
	defer dfk.Cleanup()
	r := &core.Runner{DFK: dfk, WorkRoot: filepath.Join(p.dir, "core")}
	secs, err := timeCalls(func() error {
		_, err := r.Run(tool, yamlx.MapOf("message", p.next().want[0]))
		return err
	})
	if err != nil {
		return err
	}
	p.record("core.runner_run_ms", msScale, secs)
	if rt, ok := p.out["runner.run_tool_ms"]; ok {
		p.out["parsl.dfk_overhead_us"] = probeValue{
			value: (p.out["core.runner_run_ms"].value - rt.value) * 1e3,
			calls: min(len(secs), rt.calls),
		}
	}
	return nil
}

// htexBatch is the tasks per timed batch of the HTEX probes.
const htexBatch = 256

// probeHTEX pushes echo batches through a one-block HTEX on the named
// provider and reports the time per task.
func probeHTEX(p *probeCtx, name, providerName string) error {
	htex, _, err := bench.BuildProviderHTEX(providerName, []string{p.e.bin("parsl-cwl-worker")}, nil, p.e.nproc)
	if err != nil {
		return err
	}
	if err := htex.Start(); err != nil {
		return err
	}
	defer htex.Shutdown()
	if err := bench.RunEchoBatch(htex, 16); err != nil { // worker start, handshake
		return err
	}
	var perTask []float64
	start := time.Now()
	for len(perTask) < 4 || (time.Since(start) < probeBudget && len(perTask) < 64) {
		t0 := time.Now()
		if err := bench.RunEchoBatch(htex, htexBatch); err != nil {
			return err
		}
		perTask = append(perTask, time.Since(t0).Seconds()/htexBatch)
	}
	p.out[name] = probeValue{value: median(perTask) * usScale, calls: len(perTask) * htexBatch}
	return nil
}

// runProbes runs the workload's probes in listed order.
func runProbes(e *env, w workload, dir string) (map[string]probeValue, error) {
	p := &probeCtx{e: e, w: w, dir: dir, rng: rand.New(rand.NewSource(e.seed*1000 + 999)), out: map[string]probeValue{}}
	for _, name := range w.probes {
		if err := probes[name](p); err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
	}
	return p.out, nil
}
