package core

import (
	"strings"
	"testing"

	"repro/internal/cwl"
	"repro/internal/parsl"
	"repro/internal/yamlx"
)

const scopedWorkflow = `
cwlVersion: v1.2
class: Workflow
inputs:
  message: string
outputs:
  final:
    type: File
    outputSource: relay/output
steps:
  greet:
    run:
      class: CommandLineTool
      baseCommand: echo
      stdout: greet.txt
      inputs:
        message: {type: string, inputBinding: {position: 1}}
      outputs:
        output: {type: stdout}
    in: {message: message}
    out: [output]
  relay:
    run:
      class: CommandLineTool
      baseCommand: cat
      stdout: relay.txt
      inputs:
        infile: {type: File, inputBinding: {position: 1}}
      outputs:
        output: {type: stdout}
    in: {infile: greet/output}
    out: [output]
`

func memoizingDFK(t *testing.T, dir string) *parsl.DFK {
	t.Helper()
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 4)},
		RunDir:    dir,
		Memoize:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dfk.Cleanup() })
	return dfk
}

func countStates(events []parsl.TaskEvent, state parsl.TaskState) int {
	n := 0
	for _, ev := range events {
		if ev.State == state {
			n++
		}
	}
	return n
}

// TestScopedWorkflowMemoizesAcrossRestart simulates the crash-resume path at
// the library level: run a scoped workflow, snapshot the memo table, restore
// it into a fresh DFK (a "new process"), and re-run the identical workflow
// against the same work root — every step must be a memo hit and the outputs
// must reference the same on-disk files.
func TestScopedWorkflowMemoizesAcrossRestart(t *testing.T) {
	doc, err := cwl.ParseBytes([]byte(scopedWorkflow), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	wf := doc.(*cwl.Workflow)
	work := t.TempDir()
	inputs := yamlx.MapOf("message", "hello-durable")

	dfk1 := memoizingDFK(t, work)
	r1 := &Runner{DFK: dfk1, WorkRoot: work, InputsDir: work, Label: "run1", Scope: "dochash-1"}
	out1, err := r1.RunWorkflow(wf, inputs)
	if err != nil {
		t.Fatal(err)
	}
	ev1 := dfk1.EventsFor("run1")
	if hits := countStates(ev1, parsl.StateMemoHit); hits != 0 {
		t.Fatalf("first run had %d memo hits, want 0", hits)
	}
	if done := countStates(ev1, parsl.StateDone); done != 2 {
		t.Fatalf("first run executed %d steps, want 2", done)
	}
	snap := dfk1.MemoSnapshot()
	if len(snap) != 2 {
		t.Fatalf("memo snapshot has %d entries, want 2", len(snap))
	}

	// "Restart": the snapshot already holds each step result as the codec
	// bytes the persistence layer stores; restore them into a fresh DFK.
	for _, e := range snap {
		if _, err := (parsl.ResultCodec{}).Decode(e.Raw); err != nil {
			t.Fatalf("step result %s does not decode: %v", e.Raw, err)
		}
	}
	dfk2 := memoizingDFK(t, work)
	if n := dfk2.RestoreMemo(snap); n != 2 {
		t.Fatalf("restored %d memo entries, want 2", n)
	}
	r2 := &Runner{DFK: dfk2, WorkRoot: work, InputsDir: work, Label: "run2", Scope: "dochash-1"}
	out2, err := r2.RunWorkflow(wf, inputs)
	if err != nil {
		t.Fatal(err)
	}
	ev2 := dfk2.EventsFor("run2")
	if hits := countStates(ev2, parsl.StateMemoHit); hits != 2 {
		t.Fatalf("re-run had %d memo hits, want 2 (events: %v)", hits, ev2)
	}
	a, _ := out1.MarshalJSON()
	b, _ := out2.MarshalJSON()
	if string(a) != string(b) {
		t.Errorf("outputs diverged across restart:\n  %s\n  %s", a, b)
	}
	if !strings.Contains(string(b), "relay.txt") {
		t.Errorf("outputs = %s", b)
	}
}

// TestScopeDisabledKeepsStepsUnmemoized pins the default: without a scope the
// engine must not key step tasks, so repeated runs re-execute.
func TestScopeDisabledKeepsStepsUnmemoized(t *testing.T) {
	doc, err := cwl.ParseBytes([]byte(scopedWorkflow), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	wf := doc.(*cwl.Workflow)
	work := t.TempDir()
	dfk := memoizingDFK(t, work)
	r := &Runner{DFK: dfk, WorkRoot: work, InputsDir: work, Label: "unscoped"}
	for i := 0; i < 2; i++ {
		if _, err := r.RunWorkflow(wf, yamlx.MapOf("message", "hi")); err != nil {
			t.Fatal(err)
		}
	}
	if hits := countStates(dfk.EventsFor("unscoped"), parsl.StateMemoHit); hits != 0 {
		t.Errorf("unscoped runs produced %d memo hits, want 0", hits)
	}
}
