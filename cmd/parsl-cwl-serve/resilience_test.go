package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHelperServe is not a real test: when re-executed with
// PARSL_CWL_SERVE_HELPER=1 it runs the server binary's main loop, so the
// resilience test below can kill -9 a genuine child process.
func TestHelperServe(t *testing.T) {
	if os.Getenv("PARSL_CWL_SERVE_HELPER") != "1" {
		t.Skip("helper process for TestKillNineResume")
	}
	args := strings.Split(os.Getenv("PARSL_CWL_SERVE_ARGS"), "\x1f")
	if err := run(args, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startServer re-executes the test binary as a parsl-cwl-serve process and
// returns it with its base URL once it is listening.
func startServer(t *testing.T, dataDir string) (*exec.Cmd, string) {
	t.Helper()
	// Two WAL shards: the kill -9 cycle below also proves the sharded journal
	// layout replays correctly after a crash.
	cmd, lines := serveProcess(t, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-workers", "2", "-wal-shards", "2")
	timeout := time.After(20 * time.Second)
	for {
		select {
		case line := <-lines:
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				return cmd, strings.Fields(line[i+len("listening on "):])[0]
			}
		case <-timeout:
			t.Fatal("server never reported its listen address")
			return nil, ""
		}
	}
}

// serveProcess starts the helper server with args and streams its stdout
// lines; the process is killed at test cleanup.
func serveProcess(t *testing.T, args ...string) (*exec.Cmd, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperServe")
	cmd.Env = append(os.Environ(),
		"PARSL_CWL_SERVE_HELPER=1",
		"PARSL_CWL_SERVE_ARGS="+strings.Join(args, "\x1f"),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	// Room for every line serve prints at startup, so none is dropped
	// before the test reads it.
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // nobody reads any more; keep draining the pipe
			}
		}
	}()
	return cmd, lines
}

// TestPprofAddrKeepsOneListenLine: with -pprof-addr set, exactly one stdout
// line says "listening on http://" — the API's — so a reader that takes the
// first such line reaches the API and not the pprof mux.
func TestPprofAddrKeepsOneListenLine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real server process")
	}
	_, lines := serveProcess(t, "-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-workers", "1", "-work-dir", t.TempDir())
	var listen []string
	timeout := time.After(20 * time.Second)
	for done := false; !done; {
		select {
		case line := <-lines:
			if strings.Contains(line, "listening on http://") {
				listen = append(listen, line)
			}
			done = strings.HasPrefix(line, "parsl-cwl-serve listening on")
		case <-timeout:
			t.Fatalf("server never printed its API address; listen lines so far: %q", listen)
		}
	}
	if len(listen) != 1 {
		t.Fatalf("%d stdout lines contain \"listening on http://\", want 1: %q", len(listen), listen)
	}
	_, rest, _ := strings.Cut(listen[0], "listening on ")
	resp, err := http.Get(strings.Fields(rest)[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz at the listen line's address = %d, want 200", resp.StatusCode)
	}
}

func postRun(t *testing.T, base string, body map[string]any) map[string]any {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /runs: %d %v", resp.StatusCode, out)
	}
	return out
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out
}

// eventStates fetches the run's task-event state names.
func eventStates(t *testing.T, base, id string) []string {
	t.Helper()
	out := getJSON(t, base+"/runs/"+id+"/events")
	evs, _ := out["events"].([]any)
	states := make([]string, 0, len(evs))
	for _, e := range evs {
		if m, ok := e.(map[string]any); ok {
			if s, ok := m["state"].(string); ok {
				states = append(states, s)
			}
		}
	}
	return states
}

// TestKillNineResume is the durability acceptance test: kill -9 a
// parsl-cwl-serve mid-workflow, restart it against the same -data-dir, and
// observe (1) prior completed runs listed, (2) the interrupted run
// re-executed to success with at least one memo-hit task event, and (3) no
// duplicate run IDs.
func TestKillNineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dataDir := t.TempDir()

	srv1, base := startServer(t, dataDir)

	// A quick run that completes before the crash: it must survive as
	// history.
	quickTool := `cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
stdout: quick.txt
inputs:
  message: {type: string, inputBinding: {position: 1}}
outputs:
  output: {type: stdout}
`
	quick := postRun(t, base, map[string]any{"cwl": quickTool, "inputs": map[string]any{"message": "survivor"}, "name": "quick"})
	quickID := quick["id"].(string)
	done := getJSON(t, base+"/runs/"+quickID+"?wait=1")
	if done["state"] != "succeeded" {
		t.Fatalf("quick run = %v", done)
	}

	// A two-step workflow: fast step, then a step that sleeps long enough to
	// be interrupted.
	slowWF := `cwlVersion: v1.2
class: Workflow
inputs:
  message: string
outputs:
  final:
    type: File
    outputSource: slow/output
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
  slow:
    run:
      class: CommandLineTool
      baseCommand: [sh, -c]
      arguments: ["sleep 4; cat \"$0\""]
      stdout: slow.txt
      inputs:
        infile: {type: File, inputBinding: {position: 1}}
      outputs:
        output: {type: stdout}
    in: {infile: greet/output}
    out: [output]
`
	wf := postRun(t, base, map[string]any{"cwl": slowWF, "inputs": map[string]any{"message": "durable"}, "name": "interrupted"})
	wfID := wf["id"].(string)

	// Wait until the first step has finished (its memo record is then in the
	// journal) while the second still sleeps.
	deadline := time.Now().Add(15 * time.Second)
	for {
		states := eventStates(t, base, wfID)
		execDone := 0
		for _, s := range states {
			if s == "exec_done" {
				execDone++
			}
		}
		if execDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first step never completed; states = %v", states)
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // journal writes reach the OS

	// The crash.
	if err := srv1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	srv1.Wait()

	// The resurrection.
	_, base2 := startServer(t, dataDir)

	runsOut := getJSON(t, base2+"/runs")
	runs, _ := runsOut["runs"].([]any)
	seen := map[string]bool{}
	var quickRestored map[string]any
	for _, r := range runs {
		m := r.(map[string]any)
		id := m["id"].(string)
		if seen[id] {
			t.Errorf("duplicate run ID %s in restored listing", id)
		}
		seen[id] = true
		if id == quickID {
			quickRestored = m
		}
	}
	if quickRestored == nil {
		t.Fatalf("completed run %s missing after restart; runs = %v", quickID, runsOut)
	}
	if quickRestored["state"] != "succeeded" || quickRestored["restored"] != true {
		t.Errorf("restored quick run = %v", quickRestored)
	}
	if !seen[wfID] {
		t.Fatalf("interrupted run %s missing after restart", wfID)
	}

	// The interrupted run must re-execute to success...
	final := getJSON(t, base2+"/runs/"+wfID+"?wait=1")
	if final["state"] != "succeeded" {
		t.Fatalf("re-executed run = %v", final)
	}
	// ...with the completed first step served from the restored memo table.
	states := eventStates(t, base2, wfID)
	memoHits := 0
	for _, s := range states {
		if s == "memo_done" {
			memoHits++
		}
	}
	if memoHits < 1 {
		t.Errorf("re-execution had no memo-hit events; states = %v", states)
	}

	// New submissions keep the ID sequence moving: no collisions with
	// restored runs.
	fresh := postRun(t, base2, map[string]any{"cwl": quickTool, "inputs": map[string]any{"message": "post-crash"}})
	if seen[fresh["id"].(string)] {
		t.Errorf("fresh run reused restored ID %s", fresh["id"])
	}
	getJSON(t, base2+"/runs/"+fresh["id"].(string)+"?wait=1")

	// The healthz persistence section reports the recovery.
	health := getJSON(t, base2+"/healthz")
	stats, _ := health["stats"].(map[string]any)
	pers, _ := stats["persistence"].(map[string]any)
	if pers == nil {
		t.Fatalf("healthz has no persistence section: %v", health)
	}
	if n, _ := pers["resubmittedRuns"].(float64); n < 1 {
		t.Errorf("persistence stats = %v", pers)
	}
	if n, _ := pers["shards"].(float64); n != 2 {
		t.Errorf("persistence shards = %v, want 2", pers["shards"])
	}

	// The journal really is partitioned on disk: both shard directories exist
	// and at least one holds WAL segments (run records spread by ID hash).
	walFiles := 0
	for i := 0; i < 2; i++ {
		shardDir := filepath.Join(dataDir, fmt.Sprintf("shard-%02d", i))
		entries, err := os.ReadDir(shardDir)
		if err != nil {
			t.Fatalf("shard dir missing: %v", err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".jsonl") {
				walFiles++
			}
		}
	}
	if walFiles == 0 {
		t.Error("no WAL segments found in any shard directory")
	}
}

// TestShutdownAnswersLongPoll: SIGTERM with a client long-polling a running
// run answers that client at once with the run's current state, lets the run
// finish in the drain, and exits 0; the finished run is there after a
// restart.
func TestShutdownAnswersLongPoll(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dataDir := t.TempDir()
	srv, base := startServer(t, dataDir)
	sleepTool := `cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sleep, "3"]
inputs: {}
outputs: {}
`
	id := postRun(t, base, map[string]any{"cwl": sleepTool})["id"].(string)
	deadline := time.Now().Add(10 * time.Second)
	for getJSON(t, base+"/runs/"+id)["state"] != "running" {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(20 * time.Millisecond)
	}

	type reply struct {
		state any
		at    time.Time
		err   error
	}
	polled := make(chan reply, 1)
	go func() {
		resp, err := http.Get(base + "/runs/" + id + "?wait=1")
		if err != nil {
			polled <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		polled <- reply{state: out["state"], at: time.Now(), err: err}
	}()
	time.Sleep(200 * time.Millisecond) // the long poll reaches its handler

	sigterm := time.Now()
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-polled:
		if r.err != nil {
			t.Fatalf("long poll: %v", r.err)
		}
		if wait := r.at.Sub(sigterm); wait > 1500*time.Millisecond || r.state != "running" {
			t.Errorf("long poll answered %v after %v, want running at shutdown, not the run's end", r.state, wait)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("long poll never answered")
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("serve exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}

	_, base2 := startServer(t, dataDir)
	if run := getJSON(t, base2+"/runs/"+id); run["state"] != "succeeded" {
		t.Errorf("after restart the drained run = %v, want succeeded", run)
	}
}
