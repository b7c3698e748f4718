package provider

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cwl"
	"repro/internal/runner"
	"repro/internal/yamlx"
)

// RemoteSpec is the serializable description of a task, the payload of the
// worker protocol's run request. Kind selects the interpreter.
type RemoteSpec struct {
	Kind    string
	Payload json.RawMessage

	// Doc and DocHash support shared-document amortization. When DocHash is
	// set, Payload is slim (its tool document elided), Doc is the document
	// and DocHash its content hash. A session ships the slim payload plus
	// the hash, transferring Doc only the first time it sees that hash —
	// scatter siblings sharing one tool serialize its document once. On the
	// worker, Doc is the document resolved from the session cache, and
	// ExecuteRemote splices it back into the slim payload.
	Doc     json.RawMessage
	DocHash string
}

// Remote task kinds understood by ExecuteRemote (and so by the
// parsl-cwl-worker binary).
const (
	// KindCWLTool runs one CWL CommandLineTool invocation end to end
	// (staging, command construction, execution, output collection).
	KindCWLTool = "cwltool"
	// KindEcho returns its payload as the task result — protocol tests and
	// throughput benchmarks.
	KindEcho = "echo"
	// KindSleep sleeps payload.ms milliseconds, then returns payload.value —
	// fault-injection tests that need a task to be killable mid-flight.
	KindSleep = "sleep"
	// KindCrash terminates the executing process with payload.exitCode. It
	// only ever makes sense inside a disposable worker process: it is the
	// deterministic "poison task" — every worker that picks it up dies, so
	// redispatch-bound and quarantine tests do not need to race external
	// signals.
	KindCrash = "crash"
)

// CWLToolPayload is the wire form of one CommandLineTool invocation.
type CWLToolPayload struct {
	// Tool is the raw tool document (the parse-time source map as JSON).
	Tool json.RawMessage `json:"tool"`
	// Path is where the document was loaded from (diagnostics; may be "").
	Path string `json:"path,omitempty"`
	// Inputs is the canonicalized job object.
	Inputs json.RawMessage `json:"inputs"`
	// ExtraReqs are step-level requirement overrides (cwl.Requirements JSON).
	ExtraReqs json.RawMessage `json:"extraReqs,omitempty"`
	// WorkRoot is where job directories are created.
	WorkRoot string `json:"workRoot,omitempty"`
	// InputsDir resolves relative input file paths.
	InputsDir string `json:"inputsDir,omitempty"`
	// OutDir overrides the generated job directory.
	OutDir string `json:"outDir,omitempty"`
	// Stdout/Stderr override the tool's stdout/stderr destinations.
	Stdout string `json:"stdout,omitempty"`
	Stderr string `json:"stderr,omitempty"`
	// WalltimeMs bounds the tool's process execution (CWL ToolTimeLimit):
	// past it the worker kills the tool's process group and fails the task.
	// It rides inside the payload — not on RemoteSpec — because the codec
	// ships the payload opaquely.
	WalltimeMs int `json:"walltimeMs,omitempty"`
}

// SleepPayload is the wire form of a KindSleep task.
type SleepPayload struct {
	Ms    int             `json:"ms"`
	Value json.RawMessage `json:"value,omitempty"`
	// WalltimeMs, when positive and smaller than Ms, makes the sleep fail
	// with a walltime error after WalltimeMs — the cheap vehicle for
	// deadline tests that never fork a real tool process.
	WalltimeMs int `json:"walltimeMs,omitempty"`
}

// CrashPayload is the wire form of a KindCrash task.
type CrashPayload struct {
	ExitCode int `json:"exitCode"`
	// DelayMs lets the task be adopted and reported running before the
	// process dies, so the engine observes a worker loss, not a launch
	// failure.
	DelayMs int `json:"delayMs,omitempty"`
}

// NewCWLToolSpec packages one tool invocation as a RemoteSpec.
func NewCWLToolSpec(p CWLToolPayload) (*RemoteSpec, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return &RemoteSpec{Kind: KindCWLTool, Payload: raw}, nil
}

// NewSharedDocToolSpec packages one tool invocation whose document can be
// amortized across a session: Payload elides the document, which sessions
// transfer once per DocHash and reference by hash after. Without a hash or a
// document it is NewCWLToolSpec.
func NewSharedDocToolSpec(p CWLToolPayload, docHash string) (*RemoteSpec, error) {
	if docHash == "" || len(p.Tool) == 0 {
		return NewCWLToolSpec(p)
	}
	doc := p.Tool
	p.Tool = nil
	slim, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return &RemoteSpec{Kind: KindCWLTool, Payload: slim, Doc: doc, DocHash: docHash}, nil
}

// NewEchoSpec packages a JSON value as a KindEcho task.
func NewEchoSpec(value any) (*RemoteSpec, error) {
	raw, err := json.Marshal(value)
	if err != nil {
		return nil, err
	}
	return &RemoteSpec{Kind: KindEcho, Payload: raw}, nil
}

// NewSleepSpec packages a KindSleep task.
func NewSleepSpec(d time.Duration, value any) (*RemoteSpec, error) {
	raw, err := json.Marshal(value)
	if err != nil {
		return nil, err
	}
	p, err := json.Marshal(SleepPayload{Ms: int(d / time.Millisecond), Value: raw})
	if err != nil {
		return nil, err
	}
	return &RemoteSpec{Kind: KindSleep, Payload: p}, nil
}

// NewCrashSpec packages a KindCrash task.
func NewCrashSpec(exitCode int, delay time.Duration) (*RemoteSpec, error) {
	p, err := json.Marshal(CrashPayload{ExitCode: exitCode, DelayMs: int(delay / time.Millisecond)})
	if err != nil {
		return nil, err
	}
	return &RemoteSpec{Kind: KindCrash, Payload: p}, nil
}

// ExecuteRemote interprets one RemoteSpec and returns the task result as
// JSON. It is the worker binary's execution core; the engine-side
// ProcessProvider decodes the JSON back with DecodeResult.
func ExecuteRemote(spec *RemoteSpec) (json.RawMessage, error) {
	switch spec.Kind {
	case KindEcho:
		if len(spec.Payload) == 0 {
			return json.RawMessage("null"), nil
		}
		return spec.Payload, nil
	case KindSleep:
		var p SleepPayload
		if err := json.Unmarshal(spec.Payload, &p); err != nil {
			return nil, fmt.Errorf("sleep payload: %w", err)
		}
		if p.WalltimeMs > 0 && p.Ms > p.WalltimeMs {
			time.Sleep(time.Duration(p.WalltimeMs) * time.Millisecond)
			return nil, fmt.Errorf("task exceeded its %dms walltime and was killed",
				p.WalltimeMs)
		}
		if p.Ms > 0 {
			time.Sleep(time.Duration(p.Ms) * time.Millisecond)
		}
		if len(p.Value) == 0 {
			return json.RawMessage("null"), nil
		}
		return p.Value, nil
	case KindCrash:
		var p CrashPayload
		if err := json.Unmarshal(spec.Payload, &p); err != nil {
			return nil, fmt.Errorf("crash payload: %w", err)
		}
		if p.DelayMs > 0 {
			time.Sleep(time.Duration(p.DelayMs) * time.Millisecond)
		}
		os.Exit(p.ExitCode)
		return nil, nil // unreachable
	case KindCWLTool:
		var p CWLToolPayload
		if err := json.Unmarshal(spec.Payload, &p); err != nil {
			return nil, fmt.Errorf("cwltool payload: %w", err)
		}
		// A slim payload (shared document) carries no Tool; splice in the
		// document the session transferred separately.
		if isEmptyJSON(p.Tool) && len(spec.Doc) > 0 {
			p.Tool = spec.Doc
		}
		if isEmptyJSON(p.Tool) {
			return nil, fmt.Errorf("cwltool payload carries no tool document")
		}
		return runRemoteTool(p)
	default:
		return nil, fmt.Errorf("unknown remote task kind %q", spec.Kind)
	}
}

// isEmptyJSON reports whether a raw message carries no value (absent or
// JSON null — the slim payload's elided tool field encodes as null).
func isEmptyJSON(raw json.RawMessage) bool {
	return len(raw) == 0 || string(raw) == "null"
}

// runRemoteTool reconstructs and executes one CommandLineTool invocation.
func runRemoteTool(p CWLToolPayload) (json.RawMessage, error) {
	docVal, err := yamlx.DecodeJSON(p.Tool)
	if err != nil {
		return nil, fmt.Errorf("decoding tool document: %w", err)
	}
	docMap, ok := docVal.(*yamlx.Map)
	if !ok {
		return nil, fmt.Errorf("tool document is %T, want a mapping", docVal)
	}
	baseDir := ""
	if p.Path != "" {
		baseDir = filepath.Dir(p.Path)
	}
	doc, err := cwl.ParseValue(docMap, baseDir, nil)
	if err != nil {
		return nil, fmt.Errorf("parsing tool document: %w", err)
	}
	tool, ok := doc.(*cwl.CommandLineTool)
	if !ok {
		return nil, fmt.Errorf("remote document is a %s, want CommandLineTool", doc.Class())
	}
	if p.Path != "" {
		tool.Path = p.Path
	}
	var inputs *yamlx.Map
	if len(p.Inputs) > 0 {
		v, err := yamlx.DecodeJSON(p.Inputs)
		if err != nil {
			return nil, fmt.Errorf("decoding job inputs: %w", err)
		}
		if inputs, ok = v.(*yamlx.Map); !ok {
			return nil, fmt.Errorf("job inputs are %T, want a mapping", v)
		}
	} else {
		inputs = yamlx.NewMap()
	}
	var extraReqs *cwl.Requirements
	if len(p.ExtraReqs) > 0 {
		var r cwl.Requirements
		if err := json.Unmarshal(p.ExtraReqs, &r); err != nil {
			return nil, fmt.Errorf("decoding requirements: %w", err)
		}
		extraReqs = &r
	}
	tr := &runner.ToolRunner{WorkRoot: p.WorkRoot}
	res, err := tr.RunTool(tool, inputs, runner.RunOpts{
		ExtraReqs:  extraReqs,
		InputsDir:  p.InputsDir,
		OutDir:     p.OutDir,
		StdoutPath: p.Stdout,
		StderrPath: p.Stderr,
		Walltime:   time.Duration(p.WalltimeMs) * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	return res.Outputs.MarshalJSON()
}

// DecodeResult converts a worker's JSON result back into the engine's value
// space: objects become *yamlx.Map, integers int64 — the same shapes an
// in-process execution produces, so results are provider-independent.
func DecodeResult(raw json.RawMessage) (any, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	return yamlx.DecodeJSON(raw)
}
