package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/parsl"
	"repro/internal/yamlx"
)

const echoTool = `cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message:
    type: string
    inputBinding: {position: 1}
outputs:
  output: {type: stdout}
stdout: out.txt
`

const sleepTool = `cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sleep, "2"]
inputs: {}
outputs: {}
`

const twoStepWorkflow = `cwlVersion: v1.2
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
      inputs:
        message: {type: string, inputBinding: {position: 1}}
      outputs:
        output: {type: stdout}
      stdout: greet.txt
    in: {message: message}
    out: [output]
  relay:
    run:
      class: CommandLineTool
      baseCommand: cat
      inputs:
        infile: {type: File, inputBinding: {position: 1}}
      outputs:
        output: {type: stdout}
      stdout: relay.txt
    in: {infile: greet/output}
    out: [output]
`

func newTestService(t *testing.T, opts Options) (*Service, *parsl.DFK) {
	t.Helper()
	dir := t.TempDir()
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 8)},
		RunDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.WorkRoot == "" {
		opts.WorkRoot = dir
	}
	svc, err := New(dfk, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		svc.Close(context.Background())
		dfk.Cleanup()
	})
	return svc, dfk
}

func waitTerminal(t *testing.T, svc *Service, id string) RunSnapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	return snap
}

func TestSubmitToolSucceeds(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 2})
	snap, err := svc.Submit(SubmitRequest{
		Source: []byte(echoTool),
		Inputs: yamlx.MapOf("message", "hello service"),
		Name:   "echo-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != RunQueued {
		t.Errorf("initial state = %v, want queued", snap.State)
	}
	if snap.Class != "CommandLineTool" {
		t.Errorf("class = %q", snap.Class)
	}
	final := waitTerminal(t, svc, snap.ID)
	if final.State != RunSucceeded {
		t.Fatalf("state = %v (error %q)", final.State, final.Error)
	}
	out, _ := final.OutputMap().Value("output").(*yamlx.Map)
	if out == nil {
		t.Fatalf("outputs = %s", final.Outputs)
	}
	data, err := os.ReadFile(out.GetString("path"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "hello service" {
		t.Errorf("output content = %q", data)
	}
}

func TestSubmitWorkflowSucceeds(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 2})
	snap, err := svc.Submit(SubmitRequest{
		Source: []byte(twoStepWorkflow),
		Inputs: yamlx.MapOf("message", "through the pipeline"),
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, snap.ID)
	if final.State != RunSucceeded {
		t.Fatalf("state = %v (error %q)", final.State, final.Error)
	}
	out, _ := final.OutputMap().Value("final").(*yamlx.Map)
	if out == nil {
		t.Fatalf("outputs = %s", final.Outputs)
	}
	data, err := os.ReadFile(out.GetString("path"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "through the pipeline" {
		t.Errorf("workflow output = %q", data)
	}
}

func TestSubmitInvalidDocumentRejected(t *testing.T) {
	svc, _ := newTestService(t, Options{})
	cases := []string{
		"class: CommandLineTool\ncwlVersion: v1.2\ninputs: {}\noutputs: {}\n", // no baseCommand
		"not: a: valid: doc\n",
		"class: ExpressionTool\ncwlVersion: v1.2\ninputs: {}\noutputs: {}\n", // no expression
		"class: Operation\ncwlVersion: v1.2\ninputs: {}\noutputs: {}\n",      // unsupported class
	}
	for _, src := range cases {
		if _, err := svc.Submit(SubmitRequest{Source: []byte(src)}); !errors.Is(err, ErrInvalidDocument) {
			t.Errorf("Submit(%.30q...) error = %v, want ErrInvalidDocument", src, err)
		}
	}
	if got := len(svc.List()); got != 0 {
		t.Errorf("rejected submissions left %d run records", got)
	}
}

func TestRunFailureIsRecorded(t *testing.T) {
	svc, _ := newTestService(t, Options{})
	snap, err := svc.Submit(SubmitRequest{Source: []byte(`cwlVersion: v1.2
class: CommandLineTool
baseCommand: [sh, -c, "exit 3"]
inputs: {}
outputs: {}
`)})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, snap.ID)
	if final.State != RunFailed {
		t.Fatalf("state = %v, want failed", final.State)
	}
	if final.Error == "" {
		t.Error("failed run has no error message")
	}
}

func TestDocCacheHitSkipsReparse(t *testing.T) {
	svc, _ := newTestService(t, Options{})
	first, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "a")})
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first submission reported a cache hit")
	}
	if !second.CacheHit {
		t.Error("second submission of identical source missed the cache")
	}
	if first.DocHash != second.DocHash {
		t.Errorf("hashes differ: %s vs %s", first.DocHash, second.DocHash)
	}
	stats := svc.Stats()
	if stats.CacheHits < 1 || stats.CacheMisses < 1 {
		t.Errorf("stats = %+v", stats)
	}
	waitTerminal(t, svc, first.ID)
	waitTerminal(t, svc, second.ID)
}

func TestDocCacheEvictsLRU(t *testing.T) {
	c := NewDocCache(2, 0)
	mk := func(msg string) []byte {
		return []byte(strings.Replace(echoTool, "out.txt", msg+".txt", 1))
	}
	for _, m := range []string{"a", "b", "c"} {
		if _, hit, err := c.Load(mk(m)); err != nil || hit {
			t.Fatalf("load %s: hit=%v err=%v", m, hit, err)
		}
	}
	if _, hit, _ := c.Load(mk("a")); hit {
		t.Error("evicted entry reported as hit")
	}
	if _, hit, _ := c.Load(mk("c")); !hit {
		t.Error("recent entry was evicted")
	}
	if _, _, size, bytes := c.Stats(); size != 2 || bytes == 0 {
		t.Errorf("size = %d bytes = %d, want 2 entries with nonzero bytes", size, bytes)
	}
}

func TestDocCacheByteCapEvicts(t *testing.T) {
	mk := func(msg string) []byte {
		return []byte(strings.Replace(echoTool, "out.txt", msg+".txt", 1))
	}
	one := int64(len(mk("a")))
	// Room for two documents by bytes, many by count.
	c := NewDocCache(100, 2*one+1)
	for _, m := range []string{"a", "b", "c"} {
		if _, _, err := c.Load(mk(m)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size, bytes := c.Stats(); size != 2 || bytes > 2*one+1 {
		t.Errorf("size = %d bytes = %d, want 2 entries within the byte cap", size, bytes)
	}
	if _, hit, _ := c.Load(mk("a")); hit {
		t.Error("byte-cap-evicted entry reported as hit")
	}
	if _, hit, _ := c.Load(mk("c")); !hit {
		t.Error("recent entry was evicted")
	}
	// A single oversized document is still cached (the cap never evicts the
	// newest entry itself).
	big := NewDocCache(100, 10)
	if _, _, err := big.Load(mk("oversized")); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := big.Load(mk("oversized")); !hit {
		t.Error("oversized sole entry was evicted")
	}
}

func TestStoreRetentionEvictsOldestTerminal(t *testing.T) {
	st := NewRunStore(2)
	var ids []string
	for i := 0; i < 4; i++ {
		snap := st.Create(RunMeta{Name: fmt.Sprintf("r%d", i), Class: "CommandLineTool", DocHash: "h"}, nil)
		ids = append(ids, snap.ID)
	}
	// A non-terminal run older than the evicted ones must survive pruning.
	for _, id := range ids[1:] {
		st.Finish(id, runOutputs{}, nil, false)
	}
	if _, ok := st.Get(ids[1]); ok {
		t.Errorf("oldest terminal run %s survived retention cap", ids[1])
	}
	if _, ok := st.Get(ids[0]); !ok {
		t.Errorf("non-terminal run %s was evicted", ids[0])
	}
	list := st.List()
	if len(list) != 3 { // 1 queued + 2 retained terminal
		t.Errorf("List() = %d runs, want 3: %v", len(list), list)
	}
	for i := 1; i < len(list); i++ {
		if list[i].ID < list[i-1].ID {
			t.Errorf("List() out of order: %v", list)
		}
	}
}

func TestCancelQueuedRun(t *testing.T) {
	// One worker pinned by a sleep keeps later submissions queued.
	svc, _ := newTestService(t, Options{Workers: 1})
	blocker, err := svc.Submit(SubmitRequest{Source: []byte(sleepTool)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "never runs")})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := svc.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != RunCanceled {
		t.Errorf("state = %v, want canceled", snap.State)
	}
	if _, err := svc.Cancel(queued.ID); !errors.Is(err, ErrAlreadyFinished) {
		t.Errorf("second cancel error = %v, want ErrAlreadyFinished", err)
	}
	svc.Cancel(blocker.ID)
	waitTerminal(t, svc, blocker.ID)
}

func TestCancelRunningRun(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 1})
	snap, err := svc.Submit(SubmitRequest{Source: []byte(sleepTool)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := svc.Get(snap.ID)
		if cur.State == RunRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never started (state %v)", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	if _, err := svc.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, snap.ID)
	if final.State != RunCanceled {
		t.Fatalf("state = %v, want canceled", final.State)
	}
	// The cancel must unblock the run wait well before the sleep finishes.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestCancelUnknownRun(t *testing.T) {
	svc, _ := newTestService(t, Options{})
	if _, err := svc.Cancel("run-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("error = %v, want ErrNotFound", err)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	// A single worker is blocked while low- and high-priority runs queue up;
	// the high-priority run must dequeue first despite later submission.
	svc, _ := newTestService(t, Options{Workers: 1})
	blocker, err := svc.Submit(SubmitRequest{Source: []byte(sleepTool)})
	if err != nil {
		t.Fatal(err)
	}
	low, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "low"), Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "high"), Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	svc.Cancel(blocker.ID)
	lowSnap := waitTerminal(t, svc, low.ID)
	highSnap := waitTerminal(t, svc, high.ID)
	if lowSnap.State != RunSucceeded || highSnap.State != RunSucceeded {
		t.Fatalf("states: low=%v high=%v", lowSnap.State, highSnap.State)
	}
	if !highSnap.Started.Before(*lowSnap.Started) {
		t.Errorf("high-priority run started %v, after low-priority %v", highSnap.Started, lowSnap.Started)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 1, QueueDepth: 1})
	blocker, err := svc.Submit(SubmitRequest{Source: []byte(sleepTool)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker occupies the worker so the next submit queues.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := svc.Get(blocker.ID)
		if cur.State == RunRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "q1")}); err != nil {
		t.Fatalf("first queued submit: %v", err)
	}
	_, err = svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "q2")})
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("error = %v, want ErrQueueFull", err)
	}
	svc.Cancel(blocker.ID)
}

func TestRunEventsFromDFKStream(t *testing.T) {
	svc, dfk := newTestService(t, Options{})
	snap, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "events")})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, snap.ID)
	events, ok := svc.Events(snap.ID)
	if !ok || len(events) == 0 {
		t.Fatalf("events = %v, ok = %v", events, ok)
	}
	states := map[parsl.TaskState]bool{}
	for _, ev := range events {
		if ev.Label != snap.ID {
			t.Errorf("event label %q leaked into run %s", ev.Label, snap.ID)
		}
		states[ev.State] = true
	}
	for _, want := range []parsl.TaskState{parsl.StatePending, parsl.StateLaunched, parsl.StateDone} {
		if !states[want] {
			t.Errorf("missing %v event; got %v", want, events)
		}
	}
	// The per-label slice of the shared stream must agree with the store.
	if got := dfk.EventsFor(snap.ID); len(got) != len(events) {
		t.Errorf("EventsFor = %d events, store has %d", len(got), len(events))
	}
}

func TestGracefulDrain(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 1})
	running, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "drain")})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "dropped")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := svc.Submit(SubmitRequest{Source: []byte(echoTool)}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error = %v, want ErrDraining", err)
	}
	// The in-flight run finished; the queued one was canceled. Depending on
	// timing the "queued" run may have started before Close — both terminal
	// states are legal, but nothing may be left non-terminal.
	for _, id := range []string{running.ID, queued.ID} {
		snap, _ := svc.Get(id)
		if !snap.State.Terminal() {
			t.Errorf("run %s left in state %v after drain", id, snap.State)
		}
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 4})
	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := echoTool
			if i%3 == 0 {
				src = twoStepWorkflow
			}
			snap, err := svc.Submit(SubmitRequest{
				Source: []byte(src),
				Inputs: yamlx.MapOf("message", fmt.Sprintf("msg-%d", i)),
			})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = snap.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		snap := waitTerminal(t, svc, id)
		if snap.State != RunSucceeded {
			t.Errorf("run %d (%s): state %v error %q", i, id, snap.State, snap.Error)
		}
	}
	if stats := svc.Stats(); stats.Runs["succeeded"] != n {
		t.Errorf("stats = %+v, want %d succeeded", stats, n)
	}
}
