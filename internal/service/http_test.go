package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/parsl"
)

type runJSON struct {
	ID       string                     `json:"id"`
	Name     string                     `json:"name"`
	State    string                     `json:"state"`
	Class    string                     `json:"class"`
	DocHash  string                     `json:"docHash"`
	CacheHit bool                       `json:"cacheHit"`
	Outputs  map[string]json.RawMessage `json:"outputs"`
	Error    string                     `json:"error"`
}

type fileJSON struct {
	Class string `json:"class"`
	Path  string `json:"path"`
}

func startTestServer(t *testing.T, workers int) (*httptest.Server, *Service) {
	t.Helper()
	dir := t.TempDir()
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 16)},
		RunDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(dfk, Options{Workers: workers, WorkRoot: dir})
	if err != nil {
		t.Fatal(err)
	}
	// httptest binds a real loopback listener (127.0.0.1).
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close(context.Background())
		dfk.Cleanup()
	})
	return srv, svc
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

// TestEndToEndConcurrentSubmissions drives the whole service over HTTP on a
// loopback listener: 12 concurrent submissions mixing CommandLineTools and
// Workflows, plus one invalid document (rejected with 400) and one run
// canceled mid-execution. Every accepted run must reach a terminal state
// with correct outputs.
func TestEndToEndConcurrentSubmissions(t *testing.T) {
	srv, _ := startTestServer(t, 6)

	// One invalid document is rejected with 400 and creates no run.
	resp, body := postJSON(t, srv.URL+"/runs", map[string]any{
		"cwl": "class: CommandLineTool\ncwlVersion: v1.2\ninputs: {}\noutputs: {}\n",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid doc: status %d body %s", resp.StatusCode, body)
	}

	// One long-running tool to cancel mid-run.
	resp, body = postJSON(t, srv.URL+"/runs", map[string]any{"cwl": sleepTool, "name": "to-cancel"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sleep submit: status %d body %s", resp.StatusCode, body)
	}
	var cancelRun runJSON
	if err := json.Unmarshal(body, &cancelRun); err != nil {
		t.Fatal(err)
	}

	// 12 concurrent valid submissions: even → echo tool, every third → the
	// two-step workflow.
	const n = 12
	type submitted struct {
		id      string
		isWF    bool
		message string
	}
	results := make([]submitted, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("payload-%d", i)
			src, isWF := echoTool, false
			if i%3 == 0 {
				src, isWF = twoStepWorkflow, true
			}
			payload, _ := json.Marshal(map[string]any{
				"cwl":      src,
				"inputs":   map[string]any{"message": msg},
				"name":     fmt.Sprintf("run-%d", i),
				"priority": i % 3,
			})
			resp, err := http.Post(srv.URL+"/runs", "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var run runJSON
			if resp.StatusCode != http.StatusCreated {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
				errs[i] = err
				return
			}
			results[i] = submitted{id: run.ID, isWF: isWF, message: msg}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}

	// Cancel the sleep run once it is mid-execution.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var cur runJSON
		getJSON(t, srv.URL+"/runs/"+cancelRun.ID, &cur)
		if cur.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sleep run stuck in state %q", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/runs/"+cancelRun.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp2.StatusCode)
	}

	// Every accepted run reaches a terminal state with correct outputs.
	for i, sub := range results {
		var run runJSON
		getJSON(t, srv.URL+"/runs/"+sub.id+"?wait=1", &run)
		if run.State != "succeeded" {
			t.Fatalf("run %d (%s): state %q error %q", i, sub.id, run.State, run.Error)
		}
		outKey := "output"
		if sub.isWF {
			outKey = "final"
		}
		var f fileJSON
		if err := json.Unmarshal(run.Outputs[outKey], &f); err != nil {
			t.Fatalf("run %d outputs: %v (%s)", i, err, run.Outputs[outKey])
		}
		data, err := os.ReadFile(f.Path)
		if err != nil {
			t.Fatalf("run %d output file: %v", i, err)
		}
		if strings.TrimSpace(string(data)) != sub.message {
			t.Errorf("run %d output = %q, want %q", i, data, sub.message)
		}
	}

	// The canceled run terminates as canceled.
	var canceled runJSON
	getJSON(t, srv.URL+"/runs/"+cancelRun.ID+"?wait=1", &canceled)
	if canceled.State != "canceled" {
		t.Errorf("canceled run state = %q", canceled.State)
	}

	// The run list covers the 13 accepted submissions (the invalid one left
	// no record), and the event log of a succeeded run is non-empty.
	var list struct {
		Runs []runJSON `json:"runs"`
	}
	getJSON(t, srv.URL+"/runs", &list)
	if len(list.Runs) != n+1 {
		t.Errorf("run list has %d entries, want %d", len(list.Runs), n+1)
	}
	var events struct {
		Events []struct {
			App   string `json:"app"`
			State string `json:"state"`
		} `json:"events"`
	}
	getJSON(t, srv.URL+"/runs/"+results[1].id+"/events", &events)
	if len(events.Events) == 0 {
		t.Error("succeeded run has no task events")
	}
}

func TestHTTPHealthz(t *testing.T) {
	srv, _ := startTestServer(t, 2)
	var health struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	resp := getJSON(t, srv.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}
	if health.Stats.Workers != 2 {
		t.Errorf("workers = %d", health.Stats.Workers)
	}
	if len(health.Stats.Executors) == 0 || health.Stats.Executors[0].Label == "" {
		t.Errorf("healthz is missing executor stats: %+v", health.Stats.Executors)
	}
}

func TestHTTPNotFoundAndBadBody(t *testing.T) {
	srv, _ := startTestServer(t, 1)
	if resp := getJSON(t, srv.URL+"/runs/run-424242", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/runs/run-424242/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run events: status %d", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/runs", "application/json", strings.NewReader(`{"inputs": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing cwl: status %d", resp.StatusCode)
	}
}

func TestHTTPYAMLBodyAndYAMLInputs(t *testing.T) {
	srv, _ := startTestServer(t, 2)
	// Raw YAML body: the whole document, no inputs envelope.
	resp, err := http.Post(srv.URL+"/runs", "application/x-yaml", strings.NewReader(`cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message: {type: string, inputBinding: {position: 1}, default: yaml-direct}
outputs:
  output: {type: stdout}
stdout: out.txt
`))
	if err != nil {
		t.Fatal(err)
	}
	var run runJSON
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("yaml submit: status %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/runs/"+run.ID+"?wait=1", &run)
	if run.State != "succeeded" {
		t.Fatalf("yaml-submitted run: state %q error %q", run.State, run.Error)
	}

	// JSON envelope carrying inputs as a YAML string.
	resp3, body := postJSON(t, srv.URL+"/runs", map[string]any{
		"cwl":    echoTool,
		"inputs": "message: from-yaml-inputs\n",
	})
	if resp3.StatusCode != http.StatusCreated {
		t.Fatalf("yaml-inputs submit: status %d body %s", resp3.StatusCode, body)
	}
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/runs/"+run.ID+"?wait=1", &run)
	if run.State != "succeeded" {
		t.Fatalf("yaml-inputs run: state %q error %q", run.State, run.Error)
	}
	var f fileJSON
	if err := json.Unmarshal(run.Outputs["output"], &f); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(f.Path)
	if strings.TrimSpace(string(data)) != "from-yaml-inputs" {
		t.Errorf("output = %q", data)
	}
}

// TestHTTPBareExpressionTool: a bare JavaScript ExpressionTool is a runnable
// submission — it succeeds with the expression's outputs, evaluated in the
// engine process — and an identical second submission is served whole from
// the result cache.
func TestHTTPBareExpressionTool(t *testing.T) {
	dir := t.TempDir()
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 2)},
		RunDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(dfk, Options{Workers: 2, WorkRoot: dir, ResultCacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close(context.Background())
		dfk.Cleanup()
	})

	const doc = `cwlVersion: v1.2
class: ExpressionTool
requirements:
  - class: InlineJavascriptRequirement
inputs:
  n: int
  word: string
outputs:
  tripled: int
  shout: string
expression: "${ return {tripled: inputs.n * 3, shout: inputs.word.toUpperCase() + '!'}; }"
`
	type result struct {
		runJSON
		ResultCached bool `json:"resultCached"`
	}
	submit := func() result {
		t.Helper()
		resp, body := postJSON(t, srv.URL+"/runs", map[string]any{
			"cwl": doc, "inputs": map[string]any{"n": 14, "word": "hey"},
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: status %d body %s", resp.StatusCode, body)
		}
		var run result
		if err := json.Unmarshal(body, &run); err != nil {
			t.Fatal(err)
		}
		getJSON(t, srv.URL+"/runs/"+run.ID+"?wait=1", &run)
		if run.State != "succeeded" || run.Class != "ExpressionTool" {
			t.Fatalf("run: state %q class %q error %q", run.State, run.Class, run.Error)
		}
		if got := string(run.Outputs["tripled"]); got != "42" {
			t.Errorf("tripled = %s, want 42", got)
		}
		if got := string(run.Outputs["shout"]); got != `"HEY!"` {
			t.Errorf("shout = %s, want \"HEY!\"", got)
		}
		return run
	}
	if first := submit(); first.ResultCached {
		t.Error("first submission claims a result-cache hit")
	}
	if second := submit(); !second.ResultCached {
		t.Error("identical second submission was not served from the result cache")
	}
}
