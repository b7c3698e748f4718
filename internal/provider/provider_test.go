package provider

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/slurmsim"
	"repro/internal/yamlx"
)

// TestMain doubles as the worker binary: when re-executed with
// PARSL_CWL_WORKER_PROCESS=1 the test binary speaks the worker protocol on
// stdin/stdout, so ProcessProvider tests exercise genuine subprocesses
// without building cmd/parsl-cwl-worker first.
func TestMain(m *testing.M) {
	if os.Getenv("PARSL_CWL_WORKER_PROCESS") == "1" {
		if err := RunWorker(os.Stdin, os.Stdout, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// selfWorker returns ProcessOptions that re-execute this test binary as a
// protocol worker.
func selfWorker(t *testing.T) ProcessOptions {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return ProcessOptions{
		Command: []string{exe},
		Env:     []string{"PARSL_CWL_WORKER_PROCESS=1"},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fc := NewFrameConn(&buf, &buf, nil)
	body := []byte{binKindBeat, 7}
	if err := fc.SendEncoded(body); err != nil {
		t.Fatal(err)
	}
	got, err := fc.ReadRaw()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("round trip mangled the frame: %v", got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := NewFrameConn(&buf, io.Discard, nil).ReadRaw(); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

func TestLocalProviderLifecycle(t *testing.T) {
	p := &LocalProvider{}
	h, err := p.Launch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Granted(); got != 1 {
		t.Fatalf("granted = %d, want 1", got)
	}
	res, err := runOne(h, &Task{Fn: func() (any, error) { return "ok", nil }})
	if err != nil || res != "ok" {
		t.Fatalf("Run = %v, %v", res, err)
	}
	// Panics become errors, not crashes.
	if _, err := runOne(h, &Task{Fn: func() (any, error) { panic("boom") }}); err == nil {
		t.Fatal("panic not converted to error")
	}
	if st := p.Status()[0].State; st != BlockRunning {
		t.Fatalf("state = %s, want running", st)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Granted() != 0 || !p.Status()[0].State.closedOrDead() {
		t.Fatalf("close not reflected: granted=%d status=%v", p.Granted(), p.Status())
	}
	if _, err := runOne(h, &Task{Fn: func() (any, error) { return nil, nil }}); err == nil {
		t.Fatal("closed block accepted a task")
	} else if !errors.Is(err, ErrNotStarted) {
		t.Fatalf("closed block: err = %v, want ErrNotStarted", err)
	}
}

func (s BlockState) closedOrDead() bool { return s == BlockClosed || s == BlockDead }

func TestProcessProviderRunsRemoteTasks(t *testing.T) {
	p := NewProcessProvider(selfWorker(t))
	defer p.Cancel()
	h, err := p.Launch(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Slots(); got != 2 {
		t.Fatalf("Slots() = %d, want the 2 passed as -capacity", got)
	}
	spec, err := NewEchoSpec(map[string]any{"n": 3})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent echo tasks multiplex over one pipe.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := runOne(h, &Task{ID: 1, Remote: spec})
			if err != nil {
				errs <- err
				return
			}
			m, ok := res.(*yamlx.Map)
			if !ok || m.GetInt("n", -1) != 3 {
				errs <- fmt.Errorf("unexpected result %#v", res)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pids := p.WorkerPids(); len(pids) != 1 || pids[7] == os.Getpid() || pids[7] <= 0 {
		t.Fatalf("worker pid map %v is not a distinct live process", pids)
	}
	if st := p.Status()[7].State; st != BlockRunning {
		t.Fatalf("state = %s, want running", st)
	}

	// Tasks without a RemoteSpec fall back to in-process execution.
	res, err := runOne(h, &Task{Fn: func() (any, error) { return 11, nil }})
	if err != nil || res != 11 {
		t.Fatalf("fallback Run = %v, %v", res, err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessProviderTaskErrorIsNotWorkerLost(t *testing.T) {
	p := NewProcessProvider(selfWorker(t))
	defer p.Cancel()
	h, err := p.Launch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runOne(h, &Task{Remote: &RemoteSpec{Kind: "no-such-kind"}})
	if err == nil {
		t.Fatal("unknown kind succeeded")
	}
	if isWorkerLost(err) {
		t.Fatalf("task error misreported as worker loss: %v", err)
	}
	if !h.Alive() {
		t.Fatal("worker died on a task error")
	}
}

// TestProcessProviderUnsendableTaskIsNotWorkerLost: a task that cannot be
// encoded onto the pipe (invalid payload, oversized frame) must fail as a
// task error — reporting it as worker loss would kill a healthy block and
// redispatch the same doomed task onto fresh workers forever.
func TestProcessProviderUnsendableTaskIsNotWorkerLost(t *testing.T) {
	p := NewProcessProvider(selfWorker(t))
	defer p.Cancel()
	h, err := p.Launch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := &RemoteSpec{Kind: KindEcho, Payload: json.RawMessage("{not json")}
	_, err = runOne(h, &Task{ID: 1, Remote: bad})
	if err == nil {
		t.Fatal("unencodable task succeeded")
	}
	if isWorkerLost(err) {
		t.Fatalf("encode failure misreported as worker loss: %v", err)
	}
	if !h.Alive() {
		t.Fatal("healthy worker marked dead by an encode failure")
	}
	good, err := NewEchoSpec("still here")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOne(h, &Task{ID: 2, Remote: good})
	if err != nil || res != "still here" {
		t.Fatalf("worker unusable after encode failure: %v, %v", res, err)
	}
}

func TestProcessProviderSIGKILLSurfacesWorkerLost(t *testing.T) {
	p := NewProcessProvider(selfWorker(t))
	defer p.Cancel()
	h, err := p.Launch(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewSleepSpec(30*time.Second, "never")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := runOne(h, &Task{ID: 9, Remote: spec})
		done <- err
	}()
	pid := waitForPid(t, p, 3)
	time.Sleep(50 * time.Millisecond) // task in flight
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !isWorkerLost(err) {
			t.Fatalf("want ErrWorkerLost, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not observe the worker death")
	}
	if h.Alive() {
		t.Fatal("dead worker reported alive")
	}
	if st := p.Status()[3].State; st != BlockDead {
		t.Fatalf("state = %s, want dead", st)
	}
	// New dispatches fail fast as never started, prompting a free requeue.
	if _, err := runOne(h, &Task{Remote: spec}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("post-death dispatch: want ErrNotStarted, got %v", err)
	}
}

func waitForPid(t *testing.T, p *ProcessProvider, block int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pid := p.WorkerPids()[block]; pid > 0 {
			return pid
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no worker pid")
	return 0
}

func isWorkerLost(err error) bool { return errors.Is(err, ErrWorkerLost) }

func TestProcessProviderBadBinary(t *testing.T) {
	p := NewProcessProvider(ProcessOptions{Command: []string{"/bin/true"}, HelloTimeout: 2 * time.Second})
	defer p.Cancel()
	if _, err := p.Launch(0, 1); err == nil {
		t.Fatal("binary that speaks no protocol launched")
	}
}

func TestSimProviderQueueAndWalltime(t *testing.T) {
	opts := slurmsim.DefaultOptions()
	p := NewSimProvider(SimOptions{
		Nodes:        1,
		CoresPerNode: 4,
		Scheduler:    opts,
		TimeScale:    200 * time.Microsecond,
		Walltime:     50, // virtual seconds → 10ms real
	})
	defer p.Cancel()

	h, err := p.Launch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Alive() {
		t.Fatal("granted block not alive")
	}
	res, err := runOne(h, &Task{Fn: func() (any, error) { return "ran", nil }})
	if err != nil || res != "ran" {
		t.Fatalf("Run = %v, %v", res, err)
	}
	// The walltime kill lands while a long task is in flight: worker lost.
	_, err = runOne(h, &Task{Fn: func() (any, error) {
		time.Sleep(2 * time.Second)
		return "too late", nil
	}})
	if !isWorkerLost(err) {
		t.Fatalf("walltime kill: want ErrWorkerLost, got %v", err)
	}
	if st := p.Status()[0]; st.State != BlockDead || st.Detail != "walltime exceeded" {
		t.Fatalf("status = %+v, want dead/walltime", st)
	}
}

func TestSimProviderQueueDelayAndSecondBlockWaits(t *testing.T) {
	p := NewSimProvider(SimOptions{
		Nodes:         1,
		CoresPerNode:  2,
		TimeScale:     200 * time.Microsecond,
		LaunchTimeout: 300 * time.Millisecond,
	})
	defer p.Cancel()
	if _, err := p.Launch(0, 1); err != nil {
		t.Fatal(err)
	}
	// The single simulated node is taken; a second pilot cannot be granted.
	if _, err := p.Launch(1, 1); err == nil {
		t.Fatal("second block granted on a full one-node cluster")
	}
}

func TestSimProviderPreempt(t *testing.T) {
	p := NewSimProvider(SimOptions{Nodes: 2, CoresPerNode: 2, TimeScale: 200 * time.Microsecond})
	defer p.Cancel()
	h, err := p.Launch(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := runOne(h, &Task{Fn: func() (any, error) {
			time.Sleep(5 * time.Second)
			return nil, nil
		}})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if !p.Preempt(5) {
		t.Fatal("preempt found no live block")
	}
	if p.Preempt(5) {
		t.Fatal("double preempt reported success")
	}
	select {
	case err := <-done:
		if !isWorkerLost(err) {
			t.Fatalf("preemption: want ErrWorkerLost, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("preempted Run never returned")
	}
	// The freed node is reusable: a new block is granted.
	h2, err := p.Launch(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Alive() {
		t.Fatal("replacement block not alive")
	}
	if got := p.BlockIDs(); len(got) != 2 {
		t.Fatalf("block ids = %v", got)
	}
}

func TestExecuteRemoteCWLTool(t *testing.T) {
	doc := []byte("cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: [echo, -n]\ninputs:\n  message:\n    type: string\n    inputBinding: {position: 1}\noutputs:\n  out:\n    type: stdout\nstdout: out.txt\n")
	v, err := yamlx.Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	toolJSON, err := v.(*yamlx.Map).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	job := yamlx.NewMap()
	job.Set("message", "hello-remote")
	jobJSON, err := job.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewCWLToolSpec(CWLToolPayload{Tool: toolJSON, Inputs: jobJSON, WorkRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ExecuteRemote(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := res.(*yamlx.Map)
	if !ok {
		t.Fatalf("result is %T", res)
	}
	outFile, _ := m.Value("out").(*yamlx.Map)
	if outFile == nil {
		t.Fatalf("no out file in %v", m.Keys())
	}
	data, err := os.ReadFile(outFile.GetString("path"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello-remote" {
		t.Fatalf("tool output %q", data)
	}
}

// runOne dispatches one task on h and waits for its outcome.
func runOne(h ManagerHandle, t *Task) (any, error) {
	type outcome struct {
		res any
		err error
	}
	ch := make(chan outcome, 1)
	t.Done = func(res any, err error) { ch <- outcome{res, err} }
	h.Dispatch([]*Task{t})
	o := <-ch
	return o.res, o.err
}
