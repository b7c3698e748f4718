package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cwl"
	"repro/internal/parsl"
	"repro/internal/runner"
	"repro/internal/yamlx"
)

// Runner is the parsl-cwl engine (paper §III-B): it executes CWL processes
// on Parsl executors. The paper's prototype handles CommandLineTools; this
// implementation also runs complete Workflows (the paper's stated future
// work) by pairing the shared workflow engine with a Parsl-backed submitter,
// and evaluates bare ExpressionTools in process.
type Runner struct {
	DFK *parsl.DFK
	// WorkRoot is where job directories are created.
	WorkRoot string
	// InputsDir resolves relative input file paths (defaults to the current
	// working directory).
	InputsDir string
	// Executor selects a specific executor label ("" = default).
	Executor string
	// Label tags every task this runner submits, so one run's monitoring
	// events can be isolated from a shared DFK's stream (DFK.EventsFor).
	Label string
	// Scope is a stable content identity for the document being run (e.g.
	// the service's source hash). When set — and the DFK memoizes — workflow
	// step results are keyed on scope + step id + canonicalized inputs, so
	// identical steps are memo hits across runs and, with the persistence
	// layer restoring the memo table, across process restarts.
	Scope string
	// StepIndex is an optional prebuilt dataflow index for the workflow being
	// run (runner.BuildStepIndex); the service's DocCache supplies it so
	// repeated runs of a cached document skip graph construction. An index
	// built for a different workflow is ignored.
	StepIndex *runner.StepIndex
	// ScatterWorkers bounds per-step scatter submission concurrency
	// (0 = GOMAXPROCS-derived default).
	ScatterWorkers int
}

// NewRunner builds a Runner over a loaded DFK.
func NewRunner(dfk *parsl.DFK) *Runner {
	wd, _ := os.Getwd()
	root := dfk.RunDir()
	if root == "" {
		root = wd
	}
	return &Runner{DFK: dfk, WorkRoot: root, InputsDir: wd}
}

// Run executes any supported CWL document with the given inputs.
func (r *Runner) Run(doc cwl.Document, inputs *yamlx.Map) (*yamlx.Map, error) {
	return r.RunContext(context.Background(), doc, inputs)
}

// RunContext is Run with cancellation: when ctx is cancelled the run stops
// waiting, submits no further tasks, and returns ctx's error. Tasks already
// handed to an executor run to completion in the background (the shared DFK
// stays consistent); their results are discarded.
func (r *Runner) RunContext(ctx context.Context, doc cwl.Document, inputs *yamlx.Map) (*yamlx.Map, error) {
	switch d := doc.(type) {
	case *cwl.CommandLineTool:
		return r.RunToolContext(ctx, d, inputs)
	case *cwl.Workflow:
		return r.RunWorkflowContext(ctx, d, inputs)
	case *cwl.ExpressionTool:
		return runExpressionTool(ctx, d, inputs)
	default:
		return nil, fmt.Errorf("parsl-cwl cannot execute class %s", doc.Class())
	}
}

// runExpressionTool evaluates a bare ExpressionTool in the engine process,
// exactly as a workflow step of that class is evaluated: no Parsl task.
func runExpressionTool(ctx context.Context, et *cwl.ExpressionTool, inputs *yamlx.Map) (*yamlx.Map, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, err := cwl.Validate(et); err != nil {
		return nil, err
	}
	if inputs == nil {
		inputs = yamlx.NewMap()
	}
	vals, err := runner.RunExpressionTool(et, cwl.Requirements{}, inputs)
	if err != nil {
		return nil, err
	}
	out := yamlx.NewMap()
	for _, o := range et.Outputs {
		out.Set(o.ID, vals[o.ID])
	}
	return out, nil
}

// RunTool executes one CommandLineTool as a Parsl task and waits for it.
func (r *Runner) RunTool(tool *cwl.CommandLineTool, inputs *yamlx.Map) (*yamlx.Map, error) {
	return r.RunToolContext(context.Background(), tool, inputs)
}

// RunToolContext is RunTool with cancellation.
func (r *Runner) RunToolContext(ctx context.Context, tool *cwl.CommandLineTool, inputs *yamlx.Map) (*yamlx.Map, error) {
	app, err := NewCWLAppFromTool(r.DFK, tool, WithWorkRoot(r.WorkRoot), WithExecutor(r.Executor), WithLabel(r.Label), WithInputsDir(r.InputsDir))
	if err != nil {
		return nil, err
	}
	args := parsl.Args{}
	if inputs != nil {
		for _, k := range inputs.Keys() {
			args[k] = inputs.Value(k)
		}
	}
	fut := app.CallContext(ctx, args)
	res, err := fut.Result(ctx)
	if err != nil {
		return nil, err
	}
	out, _ := res.(*yamlx.Map)
	return out, nil
}

// RunWorkflow executes a complete CWL Workflow with every tool invocation
// dispatched as a Parsl task.
func (r *Runner) RunWorkflow(wf *cwl.Workflow, inputs *yamlx.Map) (*yamlx.Map, error) {
	return r.RunWorkflowContext(context.Background(), wf, inputs)
}

// RunWorkflowContext is RunWorkflow with cancellation: a cancelled ctx stops
// new step submissions and unblocks every in-flight step wait.
func (r *Runner) RunWorkflowContext(ctx context.Context, wf *cwl.Workflow, inputs *yamlx.Map) (*yamlx.Map, error) {
	if _, err := cwl.Validate(wf); err != nil {
		return nil, err
	}
	eng := &runner.WorkflowEngine{
		Submitter:      &ParslSubmitter{Ctx: ctx, DFK: r.DFK, WorkRoot: r.WorkRoot, Executor: r.Executor, InputsDir: r.InputsDir, Label: r.Label},
		InputsDir:      r.InputsDir,
		Scope:          r.Scope,
		Index:          r.StepIndex,
		ScatterWorkers: r.ScatterWorkers,
	}
	return eng.Execute(wf, inputs)
}

// ParslSubmitter adapts the Parsl DFK to the shared workflow engine: every
// CWL step job becomes one Parsl task.
type ParslSubmitter struct {
	// Ctx, when non-nil, cancels pending submissions: a cancelled context
	// rejects new steps and abandons waits on in-flight ones.
	Ctx       context.Context
	DFK       *parsl.DFK
	WorkRoot  string
	Executor  string
	InputsDir string
	// Label tags submitted tasks' monitoring events.
	Label string
}

// SubmitTool implements runner.Submitter.
func (s *ParslSubmitter) SubmitTool(tool *cwl.CommandLineTool, inputs *yamlx.Map, extraReqs *cwl.Requirements, done func(*yamlx.Map, error)) {
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		done(nil, err)
		return
	}
	app := &toolApp{
		name:      "cwl-step",
		tool:      tool,
		inputs:    inputs,
		extraReqs: extraReqs,
		workRoot:  s.WorkRoot,
		inputsDir: s.InputsDir,
		walltime:  s.DFK.TaskWalltime(),
	}
	deadline, _ := ctx.Deadline()
	// Step tasks carry no distinguishing arguments (the tool and inputs are
	// closed over), so memoizing them would collide every step onto one key.
	fut := s.DFK.Submit(app, parsl.Args{}, parsl.CallOpts{Executor: s.Executor, Label: s.Label, NoMemo: true, Deadline: deadline})
	s.awaitStep(ctx, fut, done)
}

// SubmitToolKeyed implements runner.KeyedSubmitter: when the workflow engine
// knows a stable document scope, the step job becomes memoizable. Its memo
// identity is the app name (scope + step) plus the canonicalized job inputs
// passed as a task argument — the tool body and merged requirements are fully
// determined by the scope, so closing over them is safe. The job directory is
// likewise derived from that identity, so a restarted process re-creates the
// same paths and restored memo results stay valid on disk.
func (s *ParslSubmitter) SubmitToolKeyed(inv runner.ToolInvocation, tool *cwl.CommandLineTool, inputs *yamlx.Map, extraReqs *cwl.Requirements, done func(*yamlx.Map, error)) {
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		done(nil, err)
		return
	}
	jobJSON, err := inputs.MarshalJSON()
	if err != nil {
		// Inputs that cannot be canonicalized cannot be keyed; run unkeyed.
		s.SubmitTool(tool, inputs, extraReqs, done)
		return
	}
	jobdir := filepath.Join(s.WorkRoot, stepJobDir(inv, jobJSON))
	app := &toolApp{
		name:       "step:" + inv.Step,
		tool:       tool,
		inputs:     inputs,
		inputsJSON: jobJSON,
		extraReqs:  extraReqs,
		workRoot:   s.WorkRoot,
		inputsDir:  s.InputsDir,
		outDir:     jobdir,
		walltime:   s.DFK.TaskWalltime(),
	}
	deadline, _ := ctx.Deadline()
	args := parsl.Args{"scope": inv.Scope, "step": inv.Step, "job": string(jobJSON)}
	fut := s.DFK.Submit(app, args, parsl.CallOpts{Executor: s.Executor, Label: s.Label, Deadline: deadline})
	s.awaitStep(ctx, fut, done)
}

func (s *ParslSubmitter) awaitStep(ctx context.Context, fut *parsl.AppFuture, done func(*yamlx.Map, error)) {
	go func() {
		res, err := fut.Result(ctx)
		if err != nil {
			done(nil, err)
			return
		}
		done(res.(*yamlx.Map), nil)
	}()
}

// stepJobDir derives a deterministic, collision-free job directory for one
// keyed step job: the sanitized step id plus a short hash of the invocation
// identity. Scatter siblings differ in inputs, so they get distinct
// directories; a restarted run reproduces the same path, keeping restored
// memo results (which reference files inside it) valid.
func stepJobDir(inv runner.ToolInvocation, jobJSON []byte) string {
	h := sha256.New()
	h.Write([]byte(inv.Scope))
	h.Write([]byte{0})
	h.Write([]byte(inv.Step))
	h.Write([]byte{0})
	h.Write(jobJSON)
	sum := h.Sum(nil)
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, inv.Step)
	return fmt.Sprintf("%s-%s", safe, hex.EncodeToString(sum[:6]))
}

// ParseInputValues decodes a job-order document (inputs.yml) into the map
// form runners accept.
func ParseInputValues(data []byte) (*yamlx.Map, error) {
	v, err := yamlx.Decode(data)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return yamlx.NewMap(), nil
	}
	m, ok := v.(*yamlx.Map)
	if !ok {
		return nil, fmt.Errorf("inputs document must be a mapping")
	}
	return m, nil
}

// ParseInputFlags turns --name=value command-line arguments into an inputs
// map, typing scalar values like YAML would (the paper's
// `parsl-cwl config.yml echo.cwl --message='Hello'` form).
func ParseInputFlags(args []string) (*yamlx.Map, error) {
	m := yamlx.NewMap()
	for _, a := range args {
		if !strings.HasPrefix(a, "--") {
			return nil, fmt.Errorf("unexpected argument %q (want --name=value)", a)
		}
		body := strings.TrimPrefix(a, "--")
		name, val, found := strings.Cut(body, "=")
		if !found {
			return nil, fmt.Errorf("input flag %q is missing '='", a)
		}
		if name == "" {
			return nil, fmt.Errorf("input flag %q has an empty name", a)
		}
		parsed, err := yamlx.DecodeString(val)
		if err != nil {
			parsed = val
		}
		m.Set(name, parsed)
	}
	return m, nil
}
