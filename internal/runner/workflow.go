package runner

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/cwl"
	"repro/internal/cwlexpr"
	"repro/internal/yamlx"
)

// Submitter dispatches one CommandLineTool job. Each runner (Parsl-CWL,
// cwltool-style, Toil-style) provides its own implementation; the workflow
// engine is shared, so all systems execute identical CWL semantics and
// differ only in dispatch, which is the variable the paper's evaluation
// measures.
type Submitter interface {
	// SubmitTool runs the tool with the given inputs. extraReqs carries
	// workflow- and step-level requirement overlays. done is called exactly
	// once from any goroutine.
	SubmitTool(tool *cwl.CommandLineTool, inputs *yamlx.Map, extraReqs *cwl.Requirements, done func(outputs *yamlx.Map, err error))
}

// ToolInvocation is a stable identity for one step job, independent of the
// process that runs it: Scope is a content identity for the enclosing
// document (the engine extends it with step paths when recursing into
// subworkflows) and Step is the step id within that scope. Together with the
// job's canonicalized inputs they form a cross-restart memoization key — the
// tool body and merged requirements are fully determined by Scope+Step, so
// they need not be hashed separately.
type ToolInvocation struct {
	Scope string
	Step  string
}

// KeyedSubmitter is an optional Submitter extension: engines that know a
// stable document identity (WorkflowEngine.Scope) announce each step job's
// ToolInvocation, which lets submitters memoize or checkpoint results across
// runs and process restarts. Submitters that don't implement it receive plain
// SubmitTool calls.
type KeyedSubmitter interface {
	SubmitToolKeyed(inv ToolInvocation, tool *cwl.CommandLineTool, inputs *yamlx.Map, extraReqs *cwl.Requirements, done func(outputs *yamlx.Map, err error))
}

// WorkflowEngine executes CWL Workflows as a dataflow over a Submitter:
// steps launch as soon as their sources resolve (never in document order),
// scatter fans out sub-jobs, "when" guards steps, and subworkflows recurse.
type WorkflowEngine struct {
	Submitter Submitter
	// InputsDir resolves relative paths in workflow input files.
	InputsDir string
	// MaxScatterWidth bounds fan-out per step (0 = unlimited).
	MaxScatterWidth int
	// ScatterWorkers bounds how many scatter jobs of one step run
	// concurrently (0 selects a GOMAXPROCS-derived default). Tool execution
	// happens in the Submitter, so this caps in-flight submissions — not
	// executor parallelism — and keeps a 100k-wide scatter from spawning
	// 100k goroutines at once.
	ScatterWorkers int
	// Scope is a stable content identity for the workflow document (e.g. its
	// source hash). When set and the Submitter implements KeyedSubmitter,
	// each step job is announced with a ToolInvocation so results can be
	// memoized across runs and process restarts. Empty disables keying.
	Scope string
	// Index, when set to BuildStepIndex(wf) of the workflow being executed,
	// skips rebuilding the dataflow index per Execute call (the service's
	// DocCache prebuilds it per cached document). An index for a different
	// workflow is ignored.
	Index *StepIndex
}

// StepIndex is a workflow's precomputed dataflow graph: for every step, the
// distinct value keys it consumes, and for every key, the steps waiting on
// it. With it, scheduling is O(edges) per workflow execution — each
// completion touches only its dependents — instead of rescanning every step
// on every completion. A StepIndex is immutable after construction and
// shareable across concurrent executions of the same workflow.
type StepIndex struct {
	wf *cwl.Workflow
	// required lists each step's distinct source keys ("#"-prefix trimmed).
	required [][]string
	// deps maps a value key ("input" or "step/out") to the indexes of steps
	// consuming it.
	deps map[string][]int
}

// BuildStepIndex precomputes the dataflow index for a workflow.
func BuildStepIndex(wf *cwl.Workflow) *StepIndex {
	ix := &StepIndex{wf: wf, required: make([][]string, len(wf.Steps)), deps: map[string][]int{}}
	for i, step := range wf.Steps {
		seen := map[string]bool{}
		for _, in := range step.In {
			for _, src := range in.Source {
				key := strings.TrimPrefix(src, "#")
				if seen[key] {
					continue
				}
				seen[key] = true
				ix.required[i] = append(ix.required[i], key)
				ix.deps[key] = append(ix.deps[key], i)
			}
		}
	}
	return ix
}

// SizeEstimate approximates the index's memory footprint in bytes (map and
// slice headers plus key strings and edge ints), so byte-bounded caches that
// retain prebuilt indexes can account for them. A nil index costs nothing.
func (ix *StepIndex) SizeEstimate() int64 {
	if ix == nil {
		return 0
	}
	const (
		sliceHeader = 24
		intSize     = 8
		mapOverhead = 48 // per-bucket bookkeeping, amortized
	)
	size := int64(sliceHeader + mapOverhead)
	for _, keys := range ix.required {
		size += sliceHeader
		for _, k := range keys {
			size += sliceHeader + int64(len(k))
		}
	}
	for k, steps := range ix.deps {
		size += mapOverhead + int64(len(k)) + sliceHeader + intSize*int64(len(steps))
	}
	return size
}

type wfState struct {
	mu          sync.Mutex
	cond        *sync.Cond
	values      map[string]any // "input" and "step/out" keys
	launched    map[string]bool
	outstanding int
	err         error

	// Indexed-scheduler state: the immutable dataflow index, the per-step
	// count of still-unsatisfied source keys, and the launch context.
	idx     *StepIndex
	pending []int
	wf      *cwl.Workflow
	wfReqs  cwl.Requirements
}

// Execute runs the workflow with the provided inputs and returns the
// workflow outputs.
func (we *WorkflowEngine) Execute(wf *cwl.Workflow, provided *yamlx.Map) (*yamlx.Map, error) {
	reqs := wf.Hints.Merge(wf.Requirements)
	eng, err := cwlexpr.SharedEngine(reqs)
	if err != nil {
		return nil, err
	}
	inputs, err := ProcessInputs(wf.Inputs, provided, eng, we.InputsDir)
	if err != nil {
		return nil, fmt.Errorf("workflow %s: %w", wf.ID, err)
	}

	idx := we.Index
	if idx == nil || idx.wf != wf {
		idx = BuildStepIndex(wf)
	}
	st := &wfState{
		values: make(map[string]any, len(wf.Inputs)+len(wf.Steps)), launched: make(map[string]bool, len(wf.Steps)),
		idx: idx, pending: make([]int, len(wf.Steps)), wf: wf, wfReqs: reqs,
	}
	st.cond = sync.NewCond(&st.mu)
	for _, in := range wf.Inputs {
		st.values[in.ID] = inputs.Value(in.ID)
	}

	st.mu.Lock()
	// Seed pending counts against the initially-available values (workflow
	// inputs) and launch every step that is already satisfied.
	for i, keys := range idx.required {
		n := 0
		for _, k := range keys {
			if _, ok := st.values[k]; !ok {
				n++
			}
		}
		st.pending[i] = n
		if n == 0 {
			we.launchStep(i, st)
		}
	}
	for st.outstanding > 0 {
		st.cond.Wait()
	}
	err = st.err
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}

	// Verify everything ran (a dangling step means an unsatisfiable source).
	for _, s := range wf.Steps {
		if !st.launched[s.ID] {
			return nil, fmt.Errorf("workflow %s: step %q never became ready (missing source?)", wf.ID, s.ID)
		}
	}

	outputs := yamlx.NewMap()
	for _, out := range wf.Outputs {
		v, err := gatherSources(st.values, out.OutputSource, out.LinkMerge, out.PickValue)
		if err != nil {
			return nil, fmt.Errorf("workflow output %q: %w", out.ID, err)
		}
		outputs.Set(out.ID, v)
	}
	return outputs, nil
}

// launchStep starts step i. Caller holds st.mu.
func (we *WorkflowEngine) launchStep(i int, st *wfState) {
	step := st.wf.Steps[i]
	if st.launched[step.ID] {
		return
	}
	st.launched[step.ID] = true
	st.outstanding++
	go we.runStep(st.wf, st.wfReqs, step, st)
}

// finishStep records a step's outcome, pushes newly-satisfied dependents
// onto the ready path, and wakes the executor. Each completion does
// O(dependent edges) work.
func (we *WorkflowEngine) finishStep(step *cwl.WorkflowStep, st *wfState, outputs map[string]any, err error) {
	st.mu.Lock()
	if err != nil {
		if st.err == nil {
			st.err = fmt.Errorf("step %q: %w", step.ID, err)
		}
	} else {
		for k, v := range outputs {
			key := step.ID + "/" + k
			if _, dup := st.values[key]; dup {
				continue
			}
			st.values[key] = v
			if st.err != nil {
				continue // completions after a failure resolve values but launch nothing
			}
			for _, dep := range st.idx.deps[key] {
				st.pending[dep]--
				if st.pending[dep] == 0 {
					we.launchStep(dep, st)
				}
			}
		}
	}
	st.outstanding--
	st.cond.Broadcast()
	st.mu.Unlock()
}

func (we *WorkflowEngine) runStep(wf *cwl.Workflow, wfReqs cwl.Requirements, step *cwl.WorkflowStep, st *wfState) {
	stepReqs := wfReqs.Merge(step.Requirements)
	eng, err := cwlexpr.SharedEngine(stepReqs)
	if err != nil {
		we.finishStep(step, st, nil, err)
		return
	}

	// Resolve sources into the pre-valueFrom step input object.
	st.mu.Lock()
	base := yamlx.NewMap()
	for _, in := range step.In {
		v, gerr := gatherSources(st.values, in.Source, in.LinkMerge, in.PickValue)
		if gerr != nil {
			st.mu.Unlock()
			we.finishStep(step, st, nil, gerr)
			return
		}
		if v == nil && in.HasDef {
			v = cloneValue(in.Default)
		}
		base.Set(in.ID, v)
	}
	st.mu.Unlock()

	if len(step.Scatter) == 0 {
		outputs, err := we.runStepJob(step, stepReqs, eng, base)
		we.finishStep(step, st, outputs, err)
		return
	}

	// Scatter: fan out one job per combination.
	jobs, shape, err := scatterJobs(step, base, we.MaxScatterWidth)
	if err != nil {
		we.finishStep(step, st, nil, err)
		return
	}
	// A bounded worker pool drains the fan-out: submission-side concurrency
	// stays capped no matter the scatter width. Workers block inside the
	// Submitter waiting on results, so the cap is sized above GOMAXPROCS to
	// keep executors saturated.
	n := len(jobs)
	results := make([]map[string]any, n)
	errs := make([]error, n)
	workers := we.scatterWorkerCount(n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = we.runStepJob(step, stepReqs, eng, jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			we.finishStep(step, st, nil, e)
			return
		}
	}
	outputs := map[string]any{}
	for _, outID := range step.Out {
		flat := make([]any, n)
		for i := range results {
			flat[i] = results[i][outID]
		}
		outputs[outID] = reshapeScatter(flat, shape)
	}
	we.finishStep(step, st, outputs, nil)
}

// runStepJob executes one (possibly scattered) step job: valueFrom, when,
// then dispatch by process class.
func (we *WorkflowEngine) runStepJob(step *cwl.WorkflowStep, stepReqs cwl.Requirements, eng *cwlexpr.Engine, base *yamlx.Map) (map[string]any, error) {
	// valueFrom: self is the pre-valueFrom value, inputs is the full
	// pre-valueFrom object (per the CWL spec).
	jobInputs := yamlx.NewMap()
	for _, in := range step.In {
		v := base.Value(in.ID)
		if in.ValueFrom != "" {
			ctx := cwlexpr.Context{Inputs: base, Self: v}
			ev, err := eng.Eval(in.ValueFrom, ctx)
			if err != nil {
				return nil, fmt.Errorf("in/%s valueFrom: %w", in.ID, err)
			}
			v = ev
		}
		jobInputs.Set(in.ID, v)
	}

	if step.When != "" {
		ctx := cwlexpr.Context{Inputs: jobInputs}
		v, err := eng.Eval(step.When, ctx)
		if err != nil {
			return nil, fmt.Errorf("when: %w", err)
		}
		run, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("when: expression yielded %T, want boolean", v)
		}
		if !run {
			skipped := map[string]any{}
			for _, o := range step.Out {
				skipped[o] = nil
			}
			return skipped, nil
		}
	}

	// Drop inputs the child process does not declare (extra step inputs are
	// legal and only feed valueFrom expressions).
	filterTo := func(params []*cwl.InputParam) *yamlx.Map {
		out := yamlx.NewMap()
		for _, p := range params {
			if v, ok := jobInputs.Get(p.ID); ok {
				out.Set(p.ID, v)
			}
		}
		return out
	}

	switch run := step.Run.(type) {
	case *cwl.CommandLineTool:
		ch := make(chan struct {
			out *yamlx.Map
			err error
		}, 1)
		done := func(out *yamlx.Map, err error) {
			ch <- struct {
				out *yamlx.Map
				err error
			}{out, err}
		}
		if ks, ok := we.Submitter.(KeyedSubmitter); ok && we.Scope != "" {
			ks.SubmitToolKeyed(ToolInvocation{Scope: we.Scope, Step: step.ID}, run, filterTo(run.Inputs), &stepReqs, done)
		} else {
			we.Submitter.SubmitTool(run, filterTo(run.Inputs), &stepReqs, done)
		}
		res := <-ch
		if res.err != nil {
			return nil, res.err
		}
		return mapToGo(res.out), nil
	case *cwl.Workflow:
		// Subworkflow steps extend the scope with their step path so a step
		// id reused across nesting levels cannot collide.
		subScope := ""
		if we.Scope != "" {
			subScope = we.Scope + "/" + step.ID
		}
		sub := &WorkflowEngine{Submitter: we.Submitter, InputsDir: we.InputsDir, MaxScatterWidth: we.MaxScatterWidth, ScatterWorkers: we.ScatterWorkers, Scope: subScope}
		out, err := sub.Execute(run, filterTo(run.Inputs))
		if err != nil {
			return nil, err
		}
		return mapToGo(out), nil
	case *cwl.ExpressionTool:
		return RunExpressionTool(run, stepReqs, filterTo(run.Inputs))
	}
	return nil, fmt.Errorf("unsupported process class %T", step.Run)
}

func mapToGo(m *yamlx.Map) map[string]any {
	out := map[string]any{}
	m.Range(func(k string, v any) bool {
		out[k] = v
		return true
	})
	return out
}

// scatterWorkerCount resolves the scatter concurrency bound for a fan-out of
// n jobs: the configured ScatterWorkers, else 4×GOMAXPROCS (minimum 8), and
// never more workers than jobs.
func (we *WorkflowEngine) scatterWorkerCount(n int) int {
	w := we.ScatterWorkers
	if w <= 0 {
		w = 4 * runtime.GOMAXPROCS(0)
		if w < 8 {
			w = 8
		}
	}
	if w > n {
		w = n
	}
	return w
}

// RunExpressionTool evaluates an ExpressionTool in the calling process —
// there is nothing to fork, so it never becomes an executor task. extra
// holds requirements inherited from an enclosing workflow step (empty for a
// bare run). The result maps each declared output id to its value.
func RunExpressionTool(et *cwl.ExpressionTool, extra cwl.Requirements, provided *yamlx.Map) (map[string]any, error) {
	reqs := extra.Merge(et.Requirements)
	eng, err := cwlexpr.SharedEngine(reqs)
	if err != nil {
		return nil, err
	}
	inputs, err := ProcessInputs(et.Inputs, provided, eng, "")
	if err != nil {
		return nil, err
	}
	v, err := eng.Eval(et.Expression, cwlexpr.Context{Inputs: inputs})
	if err != nil {
		return nil, err
	}
	obj, ok := v.(*yamlx.Map)
	if !ok {
		return nil, fmt.Errorf("expression tool must return an object, got %T", v)
	}
	out := map[string]any{}
	for _, o := range et.Outputs {
		out[o.ID] = obj.Value(o.ID)
	}
	return out, nil
}

// gatherSources resolves source references with linkMerge/pickValue.
func gatherSources(values map[string]any, sources []string, linkMerge, pickValue string) (any, error) {
	if len(sources) == 0 {
		return nil, nil
	}
	var vals []any
	for _, src := range sources {
		v, ok := values[strings.TrimPrefix(src, "#")]
		if !ok {
			return nil, fmt.Errorf("source %q is not available", src)
		}
		vals = append(vals, v)
	}
	var out any
	if len(vals) == 1 && linkMerge == "" {
		out = vals[0]
	} else {
		switch linkMerge {
		case "", "merge_nested":
			out = vals
		case "merge_flattened":
			var flat []any
			for _, v := range vals {
				if arr, ok := v.([]any); ok {
					flat = append(flat, arr...)
				} else {
					flat = append(flat, v)
				}
			}
			out = flat
		default:
			return nil, fmt.Errorf("unknown linkMerge %q", linkMerge)
		}
	}
	switch pickValue {
	case "":
		return out, nil
	case "first_non_null":
		arr, ok := out.([]any)
		if !ok {
			arr = []any{out}
		}
		for _, v := range arr {
			if v != nil {
				return v, nil
			}
		}
		return nil, fmt.Errorf("pickValue first_non_null: all values are null")
	case "the_only_non_null":
		arr, ok := out.([]any)
		if !ok {
			arr = []any{out}
		}
		var found any
		count := 0
		for _, v := range arr {
			if v != nil {
				found = v
				count++
			}
		}
		if count != 1 {
			return nil, fmt.Errorf("pickValue the_only_non_null: %d non-null values", count)
		}
		return found, nil
	case "all_non_null":
		arr, ok := out.([]any)
		if !ok {
			arr = []any{out}
		}
		var keep []any
		for _, v := range arr {
			if v != nil {
				keep = append(keep, v)
			}
		}
		return keep, nil
	default:
		return nil, fmt.Errorf("unknown pickValue %q", pickValue)
	}
}

// scatterShape records how to reassemble nested_crossproduct outputs.
type scatterShape struct {
	method string
	dims   []int
}

// scatterJobs expands a scattered step into per-item input objects.
func scatterJobs(step *cwl.WorkflowStep, base *yamlx.Map, maxWidth int) ([]*yamlx.Map, scatterShape, error) {
	arrays := make([][]any, len(step.Scatter))
	for i, name := range step.Scatter {
		v := base.Value(name)
		arr, ok := v.([]any)
		if !ok {
			return nil, scatterShape{}, fmt.Errorf("scatter input %q is %T, want array", name, v)
		}
		arrays[i] = arr
	}
	method := step.ScatterMethod
	if method == "" {
		method = "dotproduct"
	}
	var combos [][]any
	shape := scatterShape{method: method}
	switch method {
	case "dotproduct":
		n := len(arrays[0])
		for _, a := range arrays[1:] {
			if len(a) != n {
				return nil, shape, fmt.Errorf("dotproduct scatter arrays have different lengths (%d vs %d)", n, len(a))
			}
		}
		for i := 0; i < n; i++ {
			row := make([]any, len(arrays))
			for j := range arrays {
				row[j] = arrays[j][i]
			}
			combos = append(combos, row)
		}
	case "flat_crossproduct", "nested_crossproduct":
		combos = [][]any{{}}
		for _, a := range arrays {
			var next [][]any
			for _, c := range combos {
				for _, item := range a {
					row := append(append([]any{}, c...), item)
					next = append(next, row)
				}
			}
			combos = next
			shape.dims = append(shape.dims, len(a))
		}
	default:
		return nil, shape, fmt.Errorf("unknown scatterMethod %q", method)
	}
	if maxWidth > 0 && len(combos) > maxWidth {
		return nil, shape, fmt.Errorf("scatter fan-out %d exceeds limit %d", len(combos), maxWidth)
	}
	jobs := make([]*yamlx.Map, len(combos))
	for i, combo := range combos {
		jb := base.Clone()
		for j, name := range step.Scatter {
			jb.Set(name, combo[j])
		}
		jobs[i] = jb
	}
	return jobs, shape, nil
}

// reshapeScatter rebuilds nested arrays for nested_crossproduct; other
// methods return the flat list.
func reshapeScatter(flat []any, shape scatterShape) any {
	if shape.method != "nested_crossproduct" || len(shape.dims) <= 1 {
		return flat
	}
	var build func(dims []int, items []any) ([]any, []any)
	build = func(dims []int, items []any) ([]any, []any) {
		if len(dims) == 1 {
			return items[:dims[0]], items[dims[0]:]
		}
		var out []any
		rest := items
		for i := 0; i < dims[0]; i++ {
			var sub []any
			sub, rest = build(dims[1:], rest)
			out = append(out, sub)
		}
		return out, rest
	}
	out, _ := build(shape.dims, flat)
	return out
}
