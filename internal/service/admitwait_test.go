package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/parsl"
	"repro/internal/persist"
	"repro/internal/yamlx"
)

// exprWorkflow is a Workflow whose only step is an ExpressionTool.
const exprWorkflow = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: InlineJavascriptRequirement
inputs:
  m: string
outputs:
  out:
    type: string
    outputSource: up/out
steps:
  up:
    run:
      class: ExpressionTool
      requirements:
        - class: InlineJavascriptRequirement
      inputs:
        m: string
      outputs:
        out: string
      expression: "${ return {out: inputs.m.toUpperCase()}; }"
    in: {m: m}
    out: [out]
`

// bareExpr is a bare ExpressionTool.
const bareExpr = `cwlVersion: v1.2
class: ExpressionTool
requirements:
  - class: InlineJavascriptRequirement
inputs:
  n: int
outputs:
  doubled: int
expression: "${ return {doubled: inputs.n * 2}; }"
`

// nestedExprWorkflow runs an ExpressionTool inside a subworkflow.
const nestedExprWorkflow = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: SubworkflowFeatureRequirement
  - class: InlineJavascriptRequirement
inputs:
  m: string
outputs:
  out:
    type: string
    outputSource: inner/out
steps:
  inner:
    run:
      class: Workflow
      inputs:
        m: string
      outputs:
        out:
          type: string
          outputSource: up/out
      steps:
        up:
          run:
            class: ExpressionTool
            inputs:
              m: string
            outputs:
              out: string
            expression: "${ return {out: inputs.m + '!'}; }"
          in: {m: m}
          out: [out]
    in: {m: m}
    out: [out]
`

// scatterExprWorkflow scatters an ExpressionTool over a string array.
const scatterExprWorkflow = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
  - class: InlineJavascriptRequirement
inputs:
  ms: string[]
outputs:
  outs:
    type: string[]
    outputSource: up/out
steps:
  up:
    run:
      class: ExpressionTool
      inputs:
        m: string
      outputs:
        out: string
      expression: "${ return {out: inputs.m.toUpperCase()}; }"
    in: {m: ms}
    scatter: [m]
    out: [out]
`

// mixedWorkflow has one ExpressionTool step and one CommandLineTool step.
const mixedWorkflow = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: InlineJavascriptRequirement
inputs:
  m: string
outputs:
  out:
    type: File
    outputSource: say/output
steps:
  up:
    run:
      class: ExpressionTool
      inputs:
        m: string
      outputs:
        out: string
      expression: "${ return {out: inputs.m.toUpperCase()}; }"
    in: {m: m}
    out: [out]
  say:
    run:
      class: CommandLineTool
      baseCommand: echo
      inputs:
        message: {type: string, inputBinding: {position: 1}}
      outputs:
        output: {type: stdout}
      stdout: say.txt
    in: {message: up/out}
    out: [output]
`

// shortSleepTool forks a process that outlives the in-process bound.
const shortSleepTool = `cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sleep, "0.3"]
inputs: {}
outputs: {}
`

// slowExpr is an in-process run that outlasts the admission wait: a loop well
// inside the interpreter's step budget.
const slowExpr = `cwlVersion: v1.2
class: ExpressionTool
requirements:
  - class: InlineJavascriptRequirement
inputs: {}
outputs:
  sum: int
expression: "${ var s = 0; for (var i = 0; i < 300000; i++) { s = s + i % 7; } return {sum: s}; }"
`

func TestInProcessDocuments(t *testing.T) {
	for _, tc := range []struct {
		name string
		doc  string
		want bool
	}{
		{"bare ExpressionTool", bareExpr, true},
		{"workflow of ExpressionTools", exprWorkflow, true},
		{"nested subworkflow of ExpressionTools", nestedExprWorkflow, true},
		{"scatter over an ExpressionTool", scatterExprWorkflow, true},
		{"workflow with one CommandLineTool", mixedWorkflow, false},
		{"bare CommandLineTool", echoTool, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewDocCache(8, 0)
			d, _, err := c.Load([]byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			if d.InProcess != tc.want {
				t.Errorf("InProcess = %v, want %v", d.InProcess, tc.want)
			}
			// A cache hit serves the flag computed at the miss.
			if d, hit, _ := c.Load([]byte(tc.doc)); !hit || d.InProcess != tc.want {
				t.Errorf("cached: hit %v InProcess %v, want hit true InProcess %v", hit, d.InProcess, tc.want)
			}
		})
	}
}

// postRunJSON POSTs body to path and decodes the snapshot it answers with.
func postRunJSON(t *testing.T, url string, body any) (*http.Response, []byte, runJSON) {
	t.Helper()
	resp, data := postJSON(t, url, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST = %d: %s", resp.StatusCode, data)
	}
	var run runJSON
	if err := json.Unmarshal(data, &run); err != nil {
		t.Fatal(err)
	}
	return resp, data, run
}

// postTimed POSTs body to url and reports how long the reply took.
func postTimed(t *testing.T, url string, body any) (*http.Response, []byte, runJSON, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, data, run := postRunJSON(t, url, body)
	return resp, data, run, time.Since(start)
}

// terminalState reports whether a run state from the REST API is final.
func terminalState(state string) bool {
	return state == "succeeded" || state == "failed" || state == "canceled"
}

// TestAdmissionWaitAnswersInProcessRunTerminal: POST of an expression-only
// document replies with the finished run, so the client needs no second
// request; a later GET serves the same snapshot. The bound is wall-clock, so
// a reply that misses it on a stalled machine is retried; it must then have
// waited the whole bound.
func TestAdmissionWaitAnswersInProcessRunTerminal(t *testing.T) {
	srv, _ := startTestServer(t, 2)
	for _, tc := range []struct {
		name, doc string
		inputs    map[string]any
		output    string
		want      string
	}{
		{"workflow", exprWorkflow, map[string]any{"m": "hi"}, "out", `"HI"`},
		{"bare", bareExpr, map[string]any{"n": 21}, "doubled", "42"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for attempt := 1; ; attempt++ {
				resp, data, run, elapsed := postTimed(t, srv.URL+"/runs", map[string]any{"cwl": tc.doc, "inputs": tc.inputs})
				if !terminalState(run.State) {
					if elapsed < inProcessWait {
						t.Fatalf("POST answered %q after %v, before the %v bound", run.State, elapsed, inProcessWait)
					}
					if attempt == 5 {
						t.Fatalf("5 POSTs answered non-terminal; last: %s", data)
					}
					continue
				}
				if run.State != "succeeded" {
					t.Fatalf("POST answered state %q, want succeeded: %s", run.State, data)
				}
				if got := string(run.Outputs[tc.output]); got != tc.want {
					t.Errorf("%s = %s, want %s", tc.output, got, tc.want)
				}
				if loc := resp.Header.Get("Location"); loc != "/runs/"+run.ID {
					t.Errorf("Location = %q, want /runs/%s", loc, run.ID)
				}
				get, err := http.Get(srv.URL + "/runs/" + run.ID)
				if err != nil {
					t.Fatal(err)
				}
				later, _ := io.ReadAll(get.Body)
				get.Body.Close()
				if !bytes.Equal(later, data) {
					t.Errorf("GET serves a different snapshot:\n POST %s GET  %s", data, later)
				}
				return
			}
		})
	}
}

// TestAdmissionWaitLeavesOtherRunsUnheld: a forked run is answered at
// admission, not held for its end.
func TestAdmissionWaitLeavesOtherRunsUnheld(t *testing.T) {
	srv, _ := startTestServer(t, 2)
	_, data, run := postRunJSON(t, srv.URL+"/runs", map[string]any{"cwl": shortSleepTool})
	if terminalState(run.State) {
		t.Errorf("POST answered terminal state %q for a 0.3s run: %s", run.State, data)
	}
}

// TestAdmissionWaitIsBounded: an in-process run that outlasts the bound is
// answered non-terminal once the bound passes, and finishes afterwards.
func TestAdmissionWaitIsBounded(t *testing.T) {
	srv, _ := startTestServer(t, 2)
	_, data, run, elapsed := postTimed(t, srv.URL+"/runs", map[string]any{"cwl": slowExpr})
	if terminalState(run.State) {
		t.Fatalf("POST answered state %q after %v, want the run still going: %s", run.State, elapsed, data)
	}
	if elapsed < inProcessWait {
		t.Errorf("POST took %v, want at least the %v bound", elapsed, inProcessWait)
	}
	var done runJSON
	getJSON(t, srv.URL+"/runs/"+run.ID+"?wait=1", &done)
	if done.State != "succeeded" {
		t.Errorf("GET ?wait=1 = %q (%s), want succeeded", done.State, done.Error)
	}
}

// TestAdmissionWaitClientDisconnect: a client already gone when an in-process
// run is admitted gets the admission snapshot at once; its run still
// finishes.
func TestAdmissionWaitClientDisconnect(t *testing.T) {
	_, svc := startTestServer(t, 2)
	payload, _ := json.Marshal(map[string]any{"cwl": slowExpr})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(payload)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	var run runJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil || rec.Code != http.StatusCreated {
		t.Fatalf("POST = %d %s (%v)", rec.Code, rec.Body, err)
	}
	if terminalState(run.State) {
		t.Errorf("POST from a gone client answered %q, want the admission snapshot", run.State)
	}
	if snap := waitTerminal(t, svc, run.ID); snap.State != RunSucceeded {
		t.Errorf("abandoned run ended %s (%s), want succeeded", snap.State, snap.Error)
	}
}

// journalKinds reads the record kinds each run has in the live journal
// segments under dataDir, in append order.
func journalKinds(t *testing.T, dataDir string) map[string][]string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, "shard-*", "wal-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{}
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var rec persist.Record
			var run struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatal(err)
			}
			_ = json.Unmarshal(rec.Data, &run)
			kinds[run.ID] = append(kinds[run.ID], rec.Kind)
		}
		f.Close()
	}
	return kinds
}

// slowLog is a log sink that takes a millisecond per record, as a slow
// stderr can.
type slowLog struct{ slog.Handler }

func (h slowLog) Handle(ctx context.Context, r slog.Record) error {
	time.Sleep(time.Millisecond)
	return h.Handler.Handle(ctx, r)
}

// TestWaitAnswersAfterJournal: the moment Wait reports a run finished, the
// run's terminal record is in the journal and its CPU time is on the
// tenant ledger, however slow the log sink. Nothing polls: each check
// reads the state as the answer arrives, so a crash right after the answer
// cannot lose the run.
func TestWaitAnswersAfterJournal(t *testing.T) {
	dataDir, workRoot := t.TempDir(), t.TempDir()
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 2)},
		RunDir:    workRoot,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	svc, err := New(dfk, Options{
		Workers: 2, DataDir: dataDir, WorkRoot: workRoot, WALShards: 2, CheckpointPeriod: time.Hour,
		Logger: slog.New(slowLog{slog.NewTextHandler(io.Discard, nil)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	var charged float64
	for i := 0; i < 20; i++ {
		snap, err := svc.Submit(SubmitRequest{Source: []byte(exprWorkflow), Inputs: yamlx.MapOf("m", strconv.Itoa(i))})
		if err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, svc, snap.ID)
		ledger := svc.store.cpuSeconds("default")
		kinds := journalKinds(t, dataDir)[snap.ID]
		if done.State != RunSucceeded {
			t.Fatalf("run %s ended %s: %s", snap.ID, done.State, done.Error)
		}
		charged += done.Finished.Sub(*done.Started).Seconds()
		if math.Abs(ledger-charged) > 1e-9 {
			t.Errorf("run %s: tenant CPU ledger = %v s when Wait answered, want %v s", snap.ID, ledger, charged)
		}
		if got := strings.Join(kinds, ","); got != "submit,run,run" {
			t.Errorf("run %s: journal kinds = %s when Wait answered, want submit,run,run", snap.ID, got)
		}
	}
}

// TestAdmissionWaitDurable: on a durable service an in-process run answered
// at POST writes the journal records any run writes (submit, running,
// terminal), survives a restart as succeeded, and charges its tenant's CPU
// ledger with its run time.
func TestAdmissionWaitDurable(t *testing.T) {
	dataDir, workRoot := t.TempDir(), t.TempDir()
	start := func() (*parsl.DFK, *Service, *httptest.Server) {
		dfk, err := parsl.Load(parsl.Config{
			Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 2)},
			RunDir:    workRoot,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := New(dfk, Options{Workers: 2, DataDir: dataDir, WorkRoot: workRoot, WALShards: 2, CheckpointPeriod: time.Hour})
		if err != nil {
			dfk.Cleanup()
			t.Fatal(err)
		}
		return dfk, svc, httptest.NewServer(svc.Handler())
	}
	dfk, svc, srv := start()
	var ids []string
	var charged float64
	answered := 0
	for _, m := range []string{"a", "b", "c", "d"} {
		_, data, run, elapsed := postTimed(t, srv.URL+"/runs", map[string]any{"cwl": exprWorkflow, "inputs": map[string]any{"m": m}})
		if terminalState(run.State) {
			answered++
		} else if elapsed < inProcessWait {
			t.Errorf("POST answered %q after %v, before the %v bound", run.State, elapsed, inProcessWait)
		}
		// A reply that missed the wall-clock bound is finished by a poll.
		if snap := waitTerminal(t, svc, run.ID); snap.State != RunSucceeded {
			t.Fatalf("run ended %s, want succeeded: %s", snap.State, data)
		}
		snap, _ := svc.Get(run.ID)
		charged += snap.Finished.Sub(*snap.Started).Seconds()
		ids = append(ids, run.ID)
	}
	if answered == 0 {
		t.Errorf("none of %d POSTs answered terminal", len(ids))
	}
	// finishRun journals a run's terminal record before it releases
	// waiters, so every run's records are all in place by now.
	kinds := journalKinds(t, dataDir)
	for _, id := range ids {
		if got := strings.Join(kinds[id], ","); got != "submit,run,run" {
			t.Errorf("run %s journal kinds = %s, want submit,run,run", id, got)
		}
	}
	if got := svc.store.cpuSeconds("default"); math.Abs(got-charged) > 1e-9 {
		t.Errorf("tenant CPU ledger = %v s, want the runs' %v s", got, charged)
	}
	srv.Close()
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	dfk.Cleanup()

	dfk, svc, srv = start()
	defer func() {
		srv.Close()
		svc.Close(context.Background())
		dfk.Cleanup()
	}()
	for _, id := range ids {
		var run runJSON
		getJSON(t, srv.URL+"/runs/"+id, &run)
		if run.State != "succeeded" || string(run.Outputs["out"]) == "" {
			t.Errorf("restored run %s: state %q outputs %v", id, run.State, run.Outputs)
		}
	}
}
