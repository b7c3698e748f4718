package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/parsl"
	"repro/internal/persist"
	"repro/internal/yamlx"
)

func durableService(t *testing.T, dataDir, workRoot string) (*parsl.DFK, *Service) {
	t.Helper()
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 4)},
		RunDir:    workRoot,
		Memoize:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(dfk, Options{
		Workers:  2,
		DataDir:  dataDir,
		WorkRoot: workRoot,
		// Large period: these tests exercise the WAL path; snapshots happen
		// only via Close.
		CheckpointPeriod: time.Hour,
	})
	if err != nil {
		dfk.Cleanup()
		t.Fatal(err)
	}
	return dfk, svc
}

func TestPersistenceRestoresHistoryAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	workRoot := t.TempDir()

	dfk1, svc1 := durableService(t, dataDir, workRoot)
	snap, err := svc1.Submit(SubmitRequest{Source: []byte(echoTool), Name: "first", Inputs: yamlx.MapOf("message", "hi")})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc1, snap.ID)
	if final.State != RunSucceeded {
		t.Fatalf("run = %+v", final)
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	dfk1.Cleanup()

	// "Restart": a fresh DFK and service over the same data dir.
	dfk2, svc2 := durableService(t, dataDir, workRoot)
	defer func() {
		svc2.Close(context.Background())
		dfk2.Cleanup()
	}()
	restored, ok := svc2.Get(snap.ID)
	if !ok {
		t.Fatalf("run %s not restored; runs = %+v", snap.ID, svc2.List())
	}
	if restored.State != RunSucceeded || !restored.Restored || restored.Name != "first" {
		t.Errorf("restored = %+v", restored)
	}
	if restored.Outputs == nil {
		t.Error("restored run lost its outputs")
	}
	if restored.Created.IsZero() || restored.Finished == nil {
		t.Errorf("restored timestamps missing: %+v", restored)
	}
	st := svc2.Stats()
	if st.Persistence == nil || st.Persistence.RestoredRuns != 1 {
		t.Errorf("persistence stats = %+v", st.Persistence)
	}
	if st.Persistence.LastSnapshot == nil {
		t.Error("graceful Close did not record a snapshot")
	}

	// New submissions continue the ID sequence: no duplicate IDs.
	snap2, err := svc2.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "again")})
	if err != nil {
		t.Fatal(err)
	}
	if snap2.ID == snap.ID {
		t.Fatalf("duplicate run ID %s after restart", snap2.ID)
	}
	if parseRunID(snap2.ID) <= parseRunID(snap.ID) {
		t.Errorf("run sequence went backwards: %s then %s", snap.ID, snap2.ID)
	}
	waitTerminal(t, svc2, snap2.ID)
}

// copyDir simulates the on-disk state a kill -9 leaves behind: the journal
// files (including every WAL shard directory) as they are mid-run, with no
// graceful shutdown snapshot.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			sub := filepath.Join(dst, e.Name())
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, filepath.Join(src, e.Name()), sub)
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
}

func TestCrashResumeReexecutesInterruptedRunWithMemoHits(t *testing.T) {
	dataDir := t.TempDir()
	crashDir := t.TempDir()
	workRoot := t.TempDir()

	wf := strings.ReplaceAll(`cwlVersion: v1.2
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
      requirements:
        - class: ShellCommandRequirement
      baseCommand: [sh, -c]
      arguments: ["sleep 3; cat \"$0\""]
      stdout: slow.txt
      inputs:
        infile: {type: File, inputBinding: {position: 1}}
      outputs:
        output: {type: stdout}
    in: {infile: greet/output}
    out: [output]
`, "\t", "  ")

	dfk1, svc1 := durableService(t, dataDir, workRoot)
	snap, err := svc1.Submit(SubmitRequest{
		Source: []byte(wf),
		Inputs: yamlx.MapOf("message", "durable"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first step to finish (its result is then journaled as a
	// memo record), while the second step sleeps.
	deadline := time.Now().Add(10 * time.Second)
	for {
		events, _ := svc1.Events(snap.ID)
		done := 0
		for _, ev := range events {
			if ev.State == parsl.StateDone {
				done++
			}
		}
		if done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first step never completed; events = %+v", events)
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the journal append settle
	copyDir(t, dataDir, crashDir)      // the "crash": state frozen mid-run

	// Recover from the crash image with a fresh DFK (empty memo table).
	dfk2, svc2 := durableService(t, crashDir, workRoot)
	defer func() {
		svc2.Close(context.Background())
		dfk2.Cleanup()
	}()
	st := svc2.Stats()
	if st.Persistence == nil || st.Persistence.ResubmittedRuns != 1 {
		t.Fatalf("persistence stats = %+v", st.Persistence)
	}
	if st.Persistence.RestoredMemo < 1 {
		t.Errorf("no memo entries restored: %+v", st.Persistence)
	}
	got, ok := svc2.Get(snap.ID)
	if !ok {
		t.Fatalf("interrupted run %s not restored", snap.ID)
	}
	if !got.Restored {
		t.Errorf("restored run not flagged: %+v", got)
	}
	final := waitTerminal(t, svc2, snap.ID)
	if final.State != RunSucceeded {
		t.Fatalf("re-executed run = %+v", final)
	}
	if final.Outputs == nil || !strings.Contains(string(final.Outputs), "slow.txt") {
		t.Errorf("outputs = %s", final.Outputs)
	}
	events, _ := svc2.Events(snap.ID)
	hits := 0
	for _, ev := range events {
		if ev.State == parsl.StateMemoHit {
			hits++
		}
	}
	if hits < 1 {
		t.Errorf("re-execution had no memo hits; events = %+v", events)
	}

	// No duplicate IDs between restored history and new submissions.
	seen := map[string]bool{}
	for _, r := range svc2.List() {
		if seen[r.ID] {
			t.Errorf("duplicate run ID %s", r.ID)
		}
		seen[r.ID] = true
	}

	// Let the original service finish before tearing it down.
	waitTerminal(t, svc1, snap.ID)
	svc1.Close(context.Background())
	dfk1.Cleanup()
}

func TestEnqueueRestoredBypassesDepthCap(t *testing.T) {
	sched := NewScheduler(1, 1, nil, func(ctx context.Context, id string) {
		<-ctx.Done()
	})
	defer sched.Close(context.Background())
	// Fill the worker and the depth-1 queue.
	if err := sched.Enqueue("a", "default", 0); err != nil {
		t.Fatal(err)
	}
	waitDepth := time.Now().Add(2 * time.Second)
	for {
		if _, running := sched.Depths(); running == 1 {
			break
		}
		if time.Now().After(waitDepth) {
			t.Fatal("worker never picked up job a")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sched.Enqueue("b", "default", 0); err != nil {
		t.Fatal(err)
	}
	if err := sched.Enqueue("c", "default", 0); err == nil {
		t.Fatal("queue over depth accepted a normal enqueue")
	}
	// Restored work bypasses backpressure: the pre-crash service had already
	// accepted it.
	if err := sched.EnqueueRestored("d", "default", 0); err != nil {
		t.Errorf("EnqueueRestored failed at depth cap: %v", err)
	}
	sched.Cancel("a")
}

func TestSubmitFailsWhenJournalAppendFails(t *testing.T) {
	dataDir := t.TempDir()
	workRoot := t.TempDir()
	dfk, svc := durableService(t, dataDir, workRoot)
	defer func() {
		svc.Close(context.Background())
		dfk.Cleanup()
	}()
	// Kill the journal out from under the service: the next submission must
	// be refused, not ACKed into the void.
	if err := svc.pers.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "x")}); err == nil {
		t.Fatal("Submit succeeded with a dead journal")
	}
	if len(svc.List()) != 0 {
		t.Errorf("refused submission left a run behind: %+v", svc.List())
	}
	if st := svc.Stats(); st.Persistence == nil || st.Persistence.Error == "" {
		t.Errorf("journal failure not surfaced in stats: %+v", st.Persistence)
	}
}

func TestPersistenceRejectedSubmissionLeavesNoGhost(t *testing.T) {
	dataDir := t.TempDir()
	workRoot := t.TempDir()
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 2)},
		RunDir:    workRoot,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(dfk, Options{Workers: 1, QueueDepth: 1, DataDir: dataDir, WorkRoot: workRoot, CheckpointPeriod: time.Hour})
	if err != nil {
		dfk.Cleanup()
		t.Fatal(err)
	}
	// Saturate the single worker and the depth-1 queue with slow runs, then
	// overflow.
	slow := []byte(`cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sleep, "1"]
inputs: {}
outputs: {}
`)
	var kept []string
	rejected := 0
	for i := 0; i < 8; i++ {
		snap, err := svc.Submit(SubmitRequest{Source: slow})
		if err != nil {
			rejected++
			continue
		}
		kept = append(kept, snap.ID)
	}
	if rejected == 0 {
		t.Fatal("queue never overflowed; cannot exercise the reject path")
	}
	svc.Close(context.Background())
	dfk.Cleanup()

	dfk2, svc2 := durableService(t, dataDir, workRoot)
	defer func() {
		svc2.Close(context.Background())
		dfk2.Cleanup()
	}()
	for _, r := range svc2.List() {
		for _, id := range kept {
			if r.ID == id {
				goto known
			}
		}
		t.Errorf("ghost run %s restored from a rejected submission", r.ID)
	known:
	}
	if got, want := len(svc2.List()), len(kept); got != want {
		t.Errorf("restored %d runs, want %d", got, want)
	}
}

// storedMemo reads every memo entry a data directory holds — each shard's
// snapshot memo section and the memo records of its journal — as the exact
// JSON bytes on disk, keyed by memo key.
func storedMemo(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	add := func(raw json.RawMessage) {
		var e memoWire
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		out[e.Key] = string(raw)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "shard-*", "snapshot.json"))
	for _, path := range snaps {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Data struct {
				Memo []json.RawMessage `json:"memo"`
			} `json:"data"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		for _, raw := range env.Data.Memo {
			add(raw)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.jsonl"))
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var rec persist.Record
			if len(line) == 0 {
				continue
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Kind == "memo" {
				add(rec.Data)
			}
		}
	}
	return out
}

// TestReplaysMemoWrittenAsDecodedValues opens testdata/memo-v1, a data
// directory written by the service when finished memo entries were still
// held as decoded values and re-encoded for every record and snapshot: two
// WAL shards, five memo entries (three in a snapshot, two in journal
// records), and a workflow run interrupted after its greet step finished.
// Replay must restore all five entries, the interrupted run must resume with
// greet a memo hit, and the next snapshot must carry every entry's bytes
// unchanged.
func TestReplaysMemoWrittenAsDecodedValues(t *testing.T) {
	dataDir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "memo-v1"), dataDir)
	before := storedMemo(t, dataDir)
	if len(before) != 5 {
		t.Fatalf("testdata holds %d memo entries, want 5", len(before))
	}

	dfk, svc := durableService(t, dataDir, t.TempDir())
	st := svc.Stats().Persistence
	if st == nil || st.RestoredMemo != len(before) || st.ResubmittedRuns != 1 {
		t.Fatalf("persistence stats = %+v, want %d memo entries restored and 1 run resubmitted", st, len(before))
	}
	final := waitTerminal(t, svc, "run-000004")
	if final.State != RunSucceeded || !strings.Contains(string(final.Outputs), "greet.txt") {
		t.Fatalf("resumed run = %+v", final)
	}
	events, _ := svc.Events("run-000004")
	hits, launches := 0, 0
	for _, ev := range events {
		switch ev.State {
		case parsl.StateMemoHit:
			hits++
		case parsl.StateLaunched:
			launches++
		}
	}
	if hits != 1 || launches != 1 {
		t.Errorf("resumed run: %d memo hits, %d launches; want greet a hit and pause launched", hits, launches)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	dfk.Cleanup()

	after := storedMemo(t, dataDir)
	for key, raw := range before {
		if after[key] != raw {
			t.Errorf("memo entry %s changed across replay and snapshot:\n  was %s\n  now %s", key, raw, after[key])
		}
	}
}
