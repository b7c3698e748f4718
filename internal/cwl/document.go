package cwl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/yamlx"
)

// Binding is a CommandLineTool inputBinding.
type Binding struct {
	HasPosition   bool
	Position      int
	PositionExpr  string // expression form of position (rare)
	Prefix        string
	Separate      bool // default true
	ItemSeparator string
	ValueFrom     string
	ShellQuote    bool // default true
	LoadContents  bool
}

func parseBinding(m *yamlx.Map) (*Binding, error) {
	if m == nil {
		return nil, nil
	}
	b := &Binding{Separate: true, ShellQuote: true}
	for _, k := range m.Keys() {
		v := m.Value(k)
		switch k {
		case "position":
			switch n := v.(type) {
			case int64:
				b.Position = int(n)
				b.HasPosition = true
			case string:
				b.PositionExpr = n
				b.HasPosition = true
			default:
				return nil, fmt.Errorf("position must be an int or expression, got %T", v)
			}
		case "prefix":
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("prefix must be a string")
			}
			b.Prefix = s
		case "separate":
			bb, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("separate must be a boolean")
			}
			b.Separate = bb
		case "itemSeparator":
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("itemSeparator must be a string")
			}
			b.ItemSeparator = s
		case "valueFrom":
			b.ValueFrom = stringify(v)
		case "shellQuote":
			bb, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("shellQuote must be a boolean")
			}
			b.ShellQuote = bb
		case "loadContents":
			bb, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("loadContents must be a boolean")
			}
			b.LoadContents = bb
		default:
			return nil, fmt.Errorf("unknown inputBinding field %q", k)
		}
	}
	return b, nil
}

func stringify(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case nil:
		return ""
	default:
		return fmt.Sprint(v)
	}
}

// OutputBinding is a CommandLineTool outputBinding.
type OutputBinding struct {
	Glob         []string // glob patterns (may contain expressions)
	LoadContents bool
	OutputEval   string
}

func parseOutputBinding(m *yamlx.Map) (*OutputBinding, error) {
	if m == nil {
		return nil, nil
	}
	b := &OutputBinding{}
	for _, k := range m.Keys() {
		v := m.Value(k)
		switch k {
		case "glob":
			switch g := v.(type) {
			case string:
				b.Glob = []string{g}
			case []any:
				for _, e := range g {
					s, ok := e.(string)
					if !ok {
						return nil, fmt.Errorf("glob entries must be strings")
					}
					b.Glob = append(b.Glob, s)
				}
			default:
				return nil, fmt.Errorf("glob must be a string or list of strings")
			}
		case "loadContents":
			bb, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("loadContents must be a boolean")
			}
			b.LoadContents = bb
		case "outputEval":
			b.OutputEval = stringify(v)
		default:
			return nil, fmt.Errorf("unknown outputBinding field %q", k)
		}
	}
	return b, nil
}

// InputParam describes one tool or workflow input.
type InputParam struct {
	ID      string
	Type    *Type
	Label   string
	Doc     string
	Default any
	HasDef  bool
	Binding *Binding
	// Validate is the paper's InlinePython extension: an f-string expression
	// evaluated before execution; raising rejects the input.
	Validate string
	// Streamable and Format are parsed for compatibility.
	Streamable bool
	Format     string
}

// OutputParam describes one tool output.
type OutputParam struct {
	ID      string
	Type    *Type
	Label   string
	Doc     string
	Binding *OutputBinding
	Format  string
}

// WorkflowOutput describes one workflow-level output.
type WorkflowOutput struct {
	ID           string
	Type         *Type
	Doc          string
	OutputSource []string
	LinkMerge    string
	PickValue    string
}

// ArgEntry is one element of a tool's arguments list: either a plain string
// (possibly an expression) or a binding with valueFrom.
type ArgEntry struct {
	ValueFrom string
	Binding   *Binding // position/prefix/shellQuote for this argument
}

// CommandLineTool is the CWL CommandLineTool class.
type CommandLineTool struct {
	CWLVersion   string
	ID           string
	Label        string
	Doc          string
	BaseCommand  []string
	Arguments    []ArgEntry
	Inputs       []*InputParam
	Outputs      []*OutputParam
	Stdin        string
	Stdout       string
	Stderr       string
	Requirements Requirements
	Hints        Requirements
	SuccessCodes []int

	// Path is where the document was loaded from ("" for in-memory docs).
	Path string

	// Raw is the source mapping the tool was parsed from (nil for tools
	// constructed in memory). It is what lets a tool invocation be shipped to
	// a process-isolated worker: the worker re-parses the same document, so
	// the wire format never chases the parsed representation. Treat it as
	// read-only.
	Raw *yamlx.Map

	// RawDoc's lazily computed cache: scatter siblings share one tool
	// pointer, so the document serializes and hashes once per tool, not once
	// per invocation.
	rawOnce sync.Once
	rawJSON []byte
	rawHash string
	rawErr  error
}

// RawDoc returns Raw's JSON encoding and its content hash (the same
// sha256-hex form service-layer doc caching uses), computed once per tool.
// Dispatch layers use the hash to ship a shared document a single time per
// worker session. Returns an error for in-memory tools without raw source.
func (t *CommandLineTool) RawDoc() (doc []byte, hash string, err error) {
	t.rawOnce.Do(func() {
		if t.Raw == nil {
			t.rawErr = fmt.Errorf("tool %s has no raw source document", t.ID)
			return
		}
		t.rawJSON, t.rawErr = t.Raw.MarshalJSON()
		if t.rawErr == nil {
			sum := sha256.Sum256(t.rawJSON)
			t.rawHash = hex.EncodeToString(sum[:])
		}
	})
	return t.rawJSON, t.rawHash, t.rawErr
}

// Class returns "CommandLineTool".
func (t *CommandLineTool) Class() string { return "CommandLineTool" }

// Input returns the input with the given id, or nil.
func (t *CommandLineTool) Input(id string) *InputParam {
	for _, in := range t.Inputs {
		if in.ID == id {
			return in
		}
	}
	return nil
}

// Output returns the output with the given id, or nil.
func (t *CommandLineTool) Output(id string) *OutputParam {
	for _, out := range t.Outputs {
		if out.ID == id {
			return out
		}
	}
	return nil
}

// StepInput is one "in:" entry of a workflow step.
type StepInput struct {
	ID        string
	Source    []string
	LinkMerge string
	PickValue string
	Default   any
	HasDef    bool
	ValueFrom string
}

// WorkflowStep is one step of a Workflow.
type WorkflowStep struct {
	ID            string
	RunRef        string // original "run:" string ("" when embedded)
	Run           Document
	In            []*StepInput
	Out           []string
	Scatter       []string
	ScatterMethod string // dotproduct (default), nested_crossproduct, flat_crossproduct
	When          string
	Label         string
	Doc           string
	Requirements  Requirements
}

// Input returns the step input with the given id, or nil.
func (s *WorkflowStep) Input(id string) *StepInput {
	for _, in := range s.In {
		if in.ID == id {
			return in
		}
	}
	return nil
}

// Workflow is the CWL Workflow class.
type Workflow struct {
	CWLVersion   string
	ID           string
	Label        string
	Doc          string
	Inputs       []*InputParam
	Outputs      []*WorkflowOutput
	Steps        []*WorkflowStep
	Requirements Requirements
	Hints        Requirements

	Path string
}

// Class returns "Workflow".
func (w *Workflow) Class() string { return "Workflow" }

// Input returns the workflow input with the given id, or nil.
func (w *Workflow) Input(id string) *InputParam {
	for _, in := range w.Inputs {
		if in.ID == id {
			return in
		}
	}
	return nil
}

// Step returns the step with the given id, or nil.
func (w *Workflow) Step(id string) *WorkflowStep {
	for _, s := range w.Steps {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// ExpressionTool is the CWL ExpressionTool class: a pure expression step.
type ExpressionTool struct {
	CWLVersion   string
	ID           string
	Doc          string
	Inputs       []*InputParam
	Outputs      []*OutputParam
	Expression   string
	Requirements Requirements

	Path string
}

// Class returns "ExpressionTool".
func (e *ExpressionTool) Class() string { return "ExpressionTool" }

// Document is any parsed CWL process object.
type Document interface{ Class() string }

// EnvDef is one environment variable definition from EnvVarRequirement.
type EnvDef struct {
	Name  string
	Value string // may be an expression
}

// ResourceReq mirrors ResourceRequirement; values may be numbers or
// expressions (kept as any).
type ResourceReq struct {
	CoresMin any
	CoresMax any
	RAMMin   any
	RAMMax   any
}

// DockerReq mirrors DockerRequirement. The runners parse it and record the
// image, executing the tool as a plain command (container engines are out of
// scope for the reproduction).
type DockerReq struct {
	Pull string
	Load string
}

// InitialWorkDir mirrors InitialWorkDirRequirement; Listing entries are
// either expressions or {entryname, entry} dirents.
type InitialWorkDir struct {
	Listing []Dirent
}

// Dirent is one InitialWorkDirRequirement listing entry.
type Dirent struct {
	EntryName string // may be an expression
	Entry     string // may be an expression
	Writable  bool
}

// Requirements is the parsed union of the requirement classes the engine
// understands.
type Requirements struct {
	InlineJavascript    bool
	JSExpressionLib     []string
	InlinePython        bool
	PyExpressionLib     []string
	StepInputExpression bool
	Scatter             bool
	Subworkflow         bool
	MultipleInput       bool
	ShellCommand        bool
	EnvVars             []EnvDef
	Resource            *ResourceReq
	Docker              *DockerReq
	WorkDir             *InitialWorkDir
	// TimeLimitSec is ToolTimeLimit's walltime bound in seconds (CWL v1.1):
	// past it the tool invocation is killed and fails. 0 = unbounded.
	TimeLimitSec int64
	// Unknown lists requirement classes the engine does not implement;
	// validation reports them (errors for requirements, warnings for hints).
	Unknown []string
}

// Merge overlays child requirements on top of parent ones (step-level
// requirements extend process-level ones).
func (r Requirements) Merge(child Requirements) Requirements {
	out := r
	out.InlineJavascript = r.InlineJavascript || child.InlineJavascript
	out.JSExpressionLib = append(append([]string{}, r.JSExpressionLib...), child.JSExpressionLib...)
	out.InlinePython = r.InlinePython || child.InlinePython
	out.PyExpressionLib = append(append([]string{}, r.PyExpressionLib...), child.PyExpressionLib...)
	out.StepInputExpression = r.StepInputExpression || child.StepInputExpression
	out.Scatter = r.Scatter || child.Scatter
	out.Subworkflow = r.Subworkflow || child.Subworkflow
	out.MultipleInput = r.MultipleInput || child.MultipleInput
	out.ShellCommand = r.ShellCommand || child.ShellCommand
	out.EnvVars = append(append([]EnvDef{}, r.EnvVars...), child.EnvVars...)
	if child.Resource != nil {
		out.Resource = child.Resource
	}
	if child.Docker != nil {
		out.Docker = child.Docker
	}
	if child.WorkDir != nil {
		out.WorkDir = child.WorkDir
	}
	if child.TimeLimitSec != 0 {
		out.TimeLimitSec = child.TimeLimitSec
	}
	out.Unknown = append(append([]string{}, r.Unknown...), child.Unknown...)
	return out
}

func parseRequirements(v any) (Requirements, error) {
	var r Requirements
	if v == nil {
		return r, nil
	}
	// Requirements may be a list of {class: ...} maps or a map keyed by class.
	var entries []*yamlx.Map
	switch x := v.(type) {
	case []any:
		for _, e := range x {
			m, ok := e.(*yamlx.Map)
			if !ok {
				return r, fmt.Errorf("requirement entry is not a mapping")
			}
			entries = append(entries, m)
		}
	case *yamlx.Map:
		for _, cls := range x.Keys() {
			body, _ := x.Value(cls).(*yamlx.Map)
			if body == nil {
				body = yamlx.NewMap()
			}
			m := body.Clone()
			m.Set("class", cls)
			entries = append(entries, m)
		}
	default:
		return r, fmt.Errorf("requirements must be a list or mapping")
	}
	for _, m := range entries {
		cls := m.GetString("class")
		switch cls {
		case "InlineJavascriptRequirement":
			r.InlineJavascript = true
			for _, lib := range m.GetSlice("expressionLib") {
				if s, ok := lib.(string); ok {
					r.JSExpressionLib = append(r.JSExpressionLib, s)
				}
			}
		case "InlinePythonRequirement":
			r.InlinePython = true
			for _, lib := range m.GetSlice("expressionLib") {
				if s, ok := lib.(string); ok {
					r.PyExpressionLib = append(r.PyExpressionLib, s)
				}
			}
		case "StepInputExpressionRequirement":
			r.StepInputExpression = true
		case "ScatterFeatureRequirement":
			r.Scatter = true
		case "SubworkflowFeatureRequirement":
			r.Subworkflow = true
		case "MultipleInputFeatureRequirement":
			r.MultipleInput = true
		case "ShellCommandRequirement":
			r.ShellCommand = true
		case "EnvVarRequirement":
			switch def := m.Value("envDef").(type) {
			case *yamlx.Map:
				for _, name := range def.Keys() {
					r.EnvVars = append(r.EnvVars, EnvDef{Name: name, Value: stringify(def.Value(name))})
				}
			case []any:
				for _, e := range def {
					em, ok := e.(*yamlx.Map)
					if !ok {
						return r, fmt.Errorf("envDef entry is not a mapping")
					}
					r.EnvVars = append(r.EnvVars, EnvDef{
						Name:  em.GetString("envName"),
						Value: stringify(em.Value("envValue")),
					})
				}
			}
		case "ResourceRequirement":
			r.Resource = &ResourceReq{
				CoresMin: m.Value("coresMin"),
				CoresMax: m.Value("coresMax"),
				RAMMin:   m.Value("ramMin"),
				RAMMax:   m.Value("ramMax"),
			}
		case "DockerRequirement":
			r.Docker = &DockerReq{
				Pull: m.GetString("dockerPull"),
				Load: m.GetString("dockerLoad"),
			}
		case "ToolTimeLimit":
			switch t := m.Value("timelimit").(type) {
			case int64:
				r.TimeLimitSec = t
			case int:
				r.TimeLimitSec = int64(t)
			case float64:
				r.TimeLimitSec = int64(t)
			default:
				return r, fmt.Errorf("ToolTimeLimit timelimit must be a number of seconds, got %T", t)
			}
		case "InitialWorkDirRequirement":
			wd := &InitialWorkDir{}
			for _, e := range m.GetSlice("listing") {
				switch ent := e.(type) {
				case string:
					wd.Listing = append(wd.Listing, Dirent{Entry: ent})
				case *yamlx.Map:
					wd.Listing = append(wd.Listing, Dirent{
						EntryName: stringify(ent.Value("entryname")),
						Entry:     stringify(ent.Value("entry")),
						Writable:  ent.GetBool("writable", false),
					})
				}
			}
			r.WorkDir = wd
		case "":
			return r, fmt.Errorf("requirement entry missing 'class'")
		default:
			r.Unknown = append(r.Unknown, cls)
		}
	}
	return r, nil
}

// parseInputs handles both the map form (id → spec) and list form
// ([{id: ..., ...}]) of inputs.
func parseInputs(v any, forTool bool) ([]*InputParam, error) {
	var out []*InputParam
	addFromMap := func(id string, spec any) error {
		p := &InputParam{ID: id}
		switch sv := spec.(type) {
		case string, []any:
			t, err := ParseType(sv)
			if err != nil {
				return fmt.Errorf("input %q: %w", id, err)
			}
			p.Type = t
		case *yamlx.Map:
			t, err := ParseType(sv.Value("type"))
			if err != nil {
				return fmt.Errorf("input %q: %w", id, err)
			}
			p.Type = t
			p.Label = sv.GetString("label")
			p.Doc = docString(sv.Value("doc"))
			if d, ok := sv.Get("default"); ok {
				p.Default = d
				p.HasDef = true
			}
			if b := sv.GetMap("inputBinding"); b != nil {
				pb, err := parseBinding(b)
				if err != nil {
					return fmt.Errorf("input %q: %w", id, err)
				}
				p.Binding = pb
			}
			p.Validate = stringify(sv.Value("validate"))
			p.Streamable = sv.GetBool("streamable", false)
			p.Format = sv.GetString("format")
		default:
			return fmt.Errorf("input %q: unsupported specification %T", id, spec)
		}
		out = append(out, p)
		return nil
	}
	switch x := v.(type) {
	case nil:
		return nil, nil
	case *yamlx.Map:
		for _, id := range x.Keys() {
			if err := addFromMap(id, x.Value(id)); err != nil {
				return nil, err
			}
		}
	case []any:
		for _, e := range x {
			m, ok := e.(*yamlx.Map)
			if !ok {
				return nil, fmt.Errorf("input list entry is not a mapping")
			}
			id := m.GetString("id")
			if id == "" {
				return nil, fmt.Errorf("input list entry missing 'id'")
			}
			spec := m.Clone()
			spec.Delete("id")
			if err := addFromMap(strings.TrimPrefix(id, "#"), spec); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("inputs must be a mapping or list")
	}
	return out, nil
}

func docString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case []any:
		parts := make([]string, 0, len(x))
		for _, e := range x {
			parts = append(parts, stringify(e))
		}
		return strings.Join(parts, "\n")
	}
	return ""
}
