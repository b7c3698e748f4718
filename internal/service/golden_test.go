package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/parsl"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// escapingTool's output basename carries characters JSON encoders treat
// specially, so the outputs' bytes pin HTML escaping and UTF-8 handling.
const escapingTool = `cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message: {type: string, inputBinding: {position: 1}}
outputs:
  output: {type: stdout}
stdout: "x<&>é.txt"
`

// failingTool exits non-zero, so its run records an error.
const failingTool = `cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sh, -c, "exit 3"]
inputs: {}
outputs: {}
`

var (
	goldenTime    = regexp.MustCompile(`"\d{4}-\d\d-\d\dT[0-9:.]+(Z|[+-]\d\d:\d\d)"`)
	goldenSeconds = regexp.MustCompile(`"(waitSeconds|execSeconds|queueWaitSeconds)":("?)[-+0-9.e]+"?`)
	goldenRunID   = regexp.MustCompile(`run-\d{6}`)
	goldenJobDir  = regexp.MustCompile(`<work>/run-N/[^"/]+`)
)

// TestRunResponsesGolden pins the bytes GET /runs/{id} and GET
// /runs/{id}/events serve for an executed workflow run, a result-cache hit,
// a tool run and a failed run, and for the same runs after a restart replays
// them from the journal. Only values that differ between processes are
// masked: times, durations, run IDs and the work directory. Rewrite with
// -update.
func TestRunResponsesGolden(t *testing.T) {
	dataDir, workRoot := t.TempDir(), t.TempDir()
	var transcript bytes.Buffer
	get := func(srv *httptest.Server, path string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&transcript, "GET %s %d\n%s", goldenRunID.ReplaceAllString(path, "run-N"), resp.StatusCode, body)
	}
	start := func() (*parsl.DFK, *Service, *httptest.Server) {
		dfk, err := parsl.Load(parsl.Config{
			Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 1)},
			RunDir:    workRoot,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := New(dfk, Options{
			Workers: 1, DataDir: dataDir, WorkRoot: workRoot,
			ResultCacheSize: 4, CheckpointPeriod: time.Hour,
		})
		if err != nil {
			dfk.Cleanup()
			t.Fatal(err)
		}
		return dfk, svc, httptest.NewServer(svc.Handler())
	}

	dfk, svc, srv := start()
	var ids []string
	for _, body := range []map[string]any{
		{"cwl": twoStepWorkflow, "inputs": map[string]any{"message": "a<b & c — ü"}, "name": "wf"},
		{"cwl": twoStepWorkflow, "inputs": map[string]any{"message": "a<b & c — ü"}, "name": "wf-again"},
		{"cwl": escapingTool, "inputs": map[string]any{"message": "esc"}, "name": "tool"},
		{"cwl": failingTool, "name": "fails"},
	} {
		resp, data := postJSON(t, srv.URL+"/runs", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /runs = %d: %s", resp.StatusCode, data)
		}
		var snap struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, svc, snap.ID)
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		get(srv, "/runs/"+id)
		get(srv, "/runs/"+id+"/events")
	}
	srv.Close()
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	dfk.Cleanup()

	dfk, svc, srv = start()
	for _, id := range ids {
		get(srv, "/runs/"+id)
		get(srv, "/runs/"+id+"/events")
	}
	srv.Close()
	svc.Close(context.Background())
	dfk.Cleanup()

	got := goldenTime.ReplaceAll(transcript.Bytes(), []byte(`"<time>"`))
	got = goldenSeconds.ReplaceAll(got, []byte(`"$1":$2<s>$2`))
	got = goldenRunID.ReplaceAll(got, []byte("run-N"))
	got = bytes.ReplaceAll(got, []byte(workRoot), []byte("<work>"))
	got = goldenJobDir.ReplaceAll(got, []byte("<work>/run-N/<job>"))

	path := filepath.Join("testdata", "run_responses.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("responses differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
