package core

import (
	"encoding/json"
	"time"

	"repro/internal/cwl"
	"repro/internal/parsl"
	"repro/internal/provider"
	"repro/internal/runner"
	"repro/internal/yamlx"
)

// toolApp is one CWL CommandLineTool invocation as a Parsl app. It executes
// in-process through runner.ToolRunner, and — when the tool retains its raw
// source — also describes the invocation as a provider.RemoteSpec, so HTEX
// over a ProcessProvider ships the whole invocation (staging, command
// construction, execution, output collection) to a process-isolated worker.
type toolApp struct {
	name string
	tool *cwl.CommandLineTool
	// inputs is the fixed job object (workflow-step path). Nil derives the
	// job from the resolved call arguments (CWLApp path).
	inputs *yamlx.Map
	// inputsJSON is inputs already canonicalized by the submitter (the keyed
	// step path hashes it into the job directory); nil encodes on demand.
	inputsJSON json.RawMessage
	extraReqs  *cwl.Requirements
	workRoot   string
	inputsDir  string
	outDir     string
	stdout     string
	stderr     string
	// walltime bounds each invocation's tool process (0 = unbounded); it is
	// enforced wherever the tool actually runs — in-process or on a worker —
	// and is tightened further by the document's own ToolTimeLimit.
	walltime time.Duration
	// tr overrides the tool runner (test seam). A custom runner cannot cross
	// a process boundary, so it also disables RemoteSpec.
	tr *runner.ToolRunner
}

// Name implements parsl.App.
func (a *toolApp) Name() string { return a.name }

// jobInputs materializes the job object for one invocation.
func (a *toolApp) jobInputs(args parsl.Args) *yamlx.Map {
	if a.inputs != nil {
		return a.inputs
	}
	m := yamlx.NewMap()
	for k, v := range args {
		m.Set(k, fromParslValue(v))
	}
	return m
}

// Execute implements parsl.App: the in-process path, also the fallback when
// the invocation cannot be serialized.
func (a *toolApp) Execute(_ *parsl.TaskContext, args parsl.Args) (any, error) {
	tr := a.tr
	if tr == nil {
		tr = &runner.ToolRunner{WorkRoot: a.workRoot}
	}
	res, err := tr.RunTool(a.tool, a.jobInputs(args), runner.RunOpts{
		ExtraReqs:  a.extraReqs,
		InputsDir:  a.inputsDir,
		OutDir:     a.outDir,
		StdoutPath: a.stdout,
		StderrPath: a.stderr,
		Walltime:   a.walltime,
	})
	if err != nil {
		return nil, err
	}
	return res.Outputs, nil
}

// RemoteSpec implements parsl.RemoteSpecer: the invocation in wire form, or
// nil when it cannot be expressed (in-memory tool without raw source, custom
// backend, unserializable inputs) — the task then runs in-process via
// Execute.
func (a *toolApp) RemoteSpec(args parsl.Args) *provider.RemoteSpec {
	if a.tr != nil || a.tool == nil || a.tool.Raw == nil {
		return nil
	}
	// The document JSON and hash are cached on the tool (RawDoc), so scatter
	// siblings sharing one tool serialize it once; the shared-doc spec lets
	// binary worker sessions ship it once per session as well.
	toolJSON, docHash, err := a.tool.RawDoc()
	if err != nil {
		return nil
	}
	inputsJSON := a.inputsJSON
	if inputsJSON == nil {
		if inputsJSON, err = a.jobInputs(args).MarshalJSON(); err != nil {
			return nil
		}
	}
	var reqsJSON json.RawMessage
	if a.extraReqs != nil {
		b, err := json.Marshal(a.extraReqs)
		if err != nil {
			return nil
		}
		reqsJSON = b
	}
	spec, err := provider.NewSharedDocToolSpec(provider.CWLToolPayload{
		Tool:       toolJSON,
		Path:       a.tool.Path,
		Inputs:     inputsJSON,
		ExtraReqs:  reqsJSON,
		WorkRoot:   a.workRoot,
		InputsDir:  a.inputsDir,
		OutDir:     a.outDir,
		Stdout:     a.stdout,
		Stderr:     a.stderr,
		WalltimeMs: int(a.walltime / time.Millisecond),
	}, docHash)
	if err != nil {
		return nil
	}
	return spec
}
