package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// recursiveJSWorkflow is a Workflow whose ExpressionTool step recurses
// without end in its expressionLib.
const recursiveJSWorkflow = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: InlineJavascriptRequirement
inputs: {}
outputs:
  out:
    type: int
    outputSource: recurse/out
steps:
  recurse:
    in: {}
    out: [out]
    run:
      class: ExpressionTool
      requirements:
        - class: InlineJavascriptRequirement
          expressionLib:
            - "function f(n) { return f(n + 1); }"
      inputs: {}
      outputs:
        out: int
      expression: "${ return {out: f(0)}; }"
`

// recursivePythonTool computes its argument with a Python function that
// recurses without end.
const recursivePythonTool = `cwlVersion: v1.2
class: CommandLineTool
requirements:
  - class: InlinePythonRequirement
    expressionLib:
      - |
        def f(n):
            return f(n + 1)
baseCommand: echo
inputs: {}
arguments:
  - f"{f(0)}"
outputs: {}
`

// TestHostileDocumentFailsOnlyItsRun: a document whose expression recurses
// without end fails its own run with the interpreter's recursion error —
// before the depth bounds it overflowed the Go stack and killed the process,
// and a durable serve replayed it into the same crash on restart. The
// service stays healthy, runs the next document, and a restart over the
// same data directory comes up healthy with the failed run restored.
func TestHostileDocumentFailsOnlyItsRun(t *testing.T) {
	dataDir, workRoot := t.TempDir(), t.TempDir()
	dfk, svc := durableService(t, dataDir, workRoot)
	srv := httptest.NewServer(svc.Handler())
	closed := false
	stop := func() {
		if !closed {
			closed = true
			srv.Close()
			svc.Close(context.Background())
			dfk.Cleanup()
		}
	}
	t.Cleanup(stop)

	submit := func(doc string, inputs map[string]any) runJSON {
		t.Helper()
		resp, body := postJSON(t, srv.URL+"/runs", map[string]any{"cwl": doc, "inputs": inputs})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
		}
		var run runJSON
		if err := json.Unmarshal(body, &run); err != nil {
			t.Fatal(err)
		}
		getJSON(t, srv.URL+"/runs/"+run.ID+"?wait=1", &run)
		return run
	}
	var failedIDs []string
	for doc, want := range map[string]string{
		recursiveJSWorkflow: "RangeError: Maximum call stack size exceeded",
		recursivePythonTool: "RecursionError: maximum recursion depth exceeded",
	} {
		run := submit(doc, map[string]any{})
		if run.State != "failed" || !strings.Contains(run.Error, want) {
			t.Errorf("recursive run: state %q error %q, want failed with %q", run.State, run.Error, want)
		}
		failedIDs = append(failedIDs, run.ID)
	}
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the hostile runs: %d", resp.StatusCode)
	}
	if run := submit(echoTool, map[string]any{"message": "still serving"}); run.State != "succeeded" {
		t.Fatalf("normal run after the hostile ones: state %q error %q", run.State, run.Error)
	}

	stop()
	dfk2, svc2 := durableService(t, dataDir, workRoot)
	srv2 := httptest.NewServer(svc2.Handler())
	t.Cleanup(func() {
		srv2.Close()
		svc2.Close(context.Background())
		dfk2.Cleanup()
	})
	if resp := getJSON(t, srv2.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after restart: %d", resp.StatusCode)
	}
	for _, id := range failedIDs {
		if snap, ok := svc2.Get(id); !ok || snap.State != RunFailed {
			t.Errorf("run %s after restart: %+v (found %v), want failed", id, snap, ok)
		}
	}
}
