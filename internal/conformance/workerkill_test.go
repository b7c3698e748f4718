package conformance

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cwl"
	"repro/internal/parsl"
	"repro/internal/provider"
	"repro/internal/yamlx"
)

// killWorkflow scatters slow tools so a worker can be SIGKILLed mid-task.
const killWorkflow = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  names: string[]
outputs:
  stamped:
    type: File[]
    outputSource: stamp/out
steps:
  stamp:
    run:
      class: CommandLineTool
      baseCommand: [sh, -c, 'sleep 0.4; printf "done-%s" "$1"', shell]
      inputs:
        name: {type: string, inputBinding: {position: 1}}
      outputs:
        out: {type: stdout}
      stdout: stamp.txt
    in: {name: names}
    scatter: [name]
    out: [out]
`

// TestProcessWorkerKillRedispatch is the worker-kill variant of the service's
// TestKillNineResume: instead of restarting the whole engine, it SIGKILLs one
// ProcessProvider worker while its tasks are in flight and asserts the
// heartbeat/redispatch machinery recovers — the run succeeds, the lost tasks
// re-dispatch to another worker, and the DFK monitoring stream records no
// duplicate terminal events.
func TestProcessWorkerKillRedispatch(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	prov := provider.NewProcessProvider(provider.ProcessOptions{
		Command: []string{exe},
		Env:     []string{"PARSL_CWL_WORKER_PROCESS=1"},
	})
	htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
		Label:           "htex",
		Provider:        prov,
		WorkersPerNode:  2,
		MaxBlocks:       2,
		MinBlocks:       1,
		InitBlocks:      2,
		HeartbeatPeriod: 30 * time.Millisecond,
	})
	workRoot := t.TempDir()
	dfk, err := parsl.Load(parsl.Config{Executors: []parsl.Executor{htex}, RunDir: workRoot})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()

	doc, err := cwl.ParseBytes([]byte(killWorkflow), workRoot, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner(dfk)
	r.WorkRoot = workRoot
	r.Label = "kill-run"
	// A scope keys step jobs onto deterministic directories, so a task
	// re-dispatched after the kill lands in the same place it started.
	r.Scope = "kill"
	names := []any{"a", "b", "c", "d", "e", "f", "g", "h"}

	type result struct {
		out *yamlx.Map
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := r.Run(doc, yamlx.MapOf("names", names))
		done <- result{out, err}
	}()

	// Wait until tasks are genuinely in flight on the workers, then SIGKILL
	// one worker process.
	victim := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no busy worker to kill")
		}
		pids := prov.WorkerPids()
		if len(pids) >= 1 && prov.RemoteTasks() >= 2 {
			for _, pid := range pids {
				victim = pid
				break
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // land the kill mid-sleep
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("run failed after worker kill: %v", res.err)
	}
	files, _ := res.out.Value("stamped").([]any)
	if len(files) != len(names) {
		t.Fatalf("stamped = %d files, want %d", len(files), len(names))
	}
	for i, f := range files {
		fm := f.(*yamlx.Map)
		data, err := os.ReadFile(fm.GetString("path"))
		if err != nil {
			t.Fatal(err)
		}
		want := "done-" + names[i].(string)
		if string(data) != want {
			t.Errorf("file %d = %q, want %q", i, data, want)
		}
	}

	st := htex.Stats()
	if st.TasksRedispatched < 1 {
		t.Errorf("redispatched = %d, want >= 1", st.TasksRedispatched)
	}
	if st.ManagersLost < 1 {
		t.Errorf("managers lost = %d, want >= 1", st.ManagersLost)
	}

	// Exactly one terminal event per task: a killed worker's re-dispatched
	// task must complete once, never twice.
	terminal := map[int]int{}
	launches := map[int]int{}
	for _, ev := range dfk.EventsFor("kill-run") {
		switch ev.State {
		case parsl.StateDone, parsl.StateFailed, parsl.StateDepFail, parsl.StateMemoHit:
			terminal[ev.TaskID]++
		case parsl.StateLaunched:
			launches[ev.TaskID]++
		}
	}
	if len(terminal) != len(names) {
		t.Errorf("terminal events for %d tasks, want %d", len(terminal), len(names))
	}
	for id, n := range terminal {
		if n != 1 {
			t.Errorf("task %d has %d terminal events", id, n)
		}
	}
	// The kill must be visible as extra launch events on at least one task.
	relaunched := 0
	for _, n := range launches {
		if n > 1 {
			relaunched++
		}
	}
	if relaunched == 0 {
		t.Error("no task recorded an executor-level re-launch")
	}

	// The dead worker's job directory contents were rebuilt by the retry.
	if entries, err := os.ReadDir(workRoot); err == nil {
		found := false
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "stamp") {
				found = true
			}
		}
		if !found {
			t.Error("no stamp job directories in the work root")
		}
	}
}

// TestProcessWorkerKillChargesOnlyStarted pins the redispatch budget's
// meaning under the asynchronous contract: SIGKILL a capacity-2 worker that
// holds 2 running and 2 queued sleep tasks. Only the 2 that had started are
// re-dispatched against their budget; the 2 still queued are requeued free.
// All 4 then succeed on the replacement worker.
func TestProcessWorkerKillChargesOnlyStarted(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	prov := provider.NewProcessProvider(provider.ProcessOptions{
		Command: []string{exe},
		Env:     []string{"PARSL_CWL_WORKER_PROCESS=1"},
	})
	htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
		Label:    "htex",
		Provider: prov,
		// Two slots and the default prefetch of one task per slot: the block
		// holds 4 tasks, 2 running and 2 queued behind them.
		WorkersPerNode:  2,
		MaxBlocks:       1,
		MinBlocks:       1,
		InitBlocks:      1,
		HeartbeatPeriod: 30 * time.Millisecond,
		// The kill is seen by the session itself; a heartbeat delayed on a
		// loaded machine must not read as a silent block, whose tasks are
		// all charged.
		HeartbeatThreshold: time.Minute,
	})
	if err := htex.Start(); err != nil {
		t.Fatal(err)
	}
	defer htex.Shutdown()

	const n = 4
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		spec, err := provider.NewSleepSpec(time.Second, i)
		if err != nil {
			t.Fatal(err)
		}
		htex.Submit(&parsl.Task{ID: i, Remote: spec, Fn: func() (any, error) {
			return nil, fmt.Errorf("task %d must run on a worker", i)
		}}, func(res any, err error) {
			if err == nil && res != int64(i) {
				err = fmt.Errorf("task %d returned %v", i, res)
			}
			results <- err
		})
	}

	deadline := time.Now().Add(10 * time.Second)
	for prov.RemoteTasks() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d tasks reached the worker", prov.RemoteTasks(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // two running, two queued, none done
	pid := prov.WorkerPids()[0]
	if pid <= 0 {
		t.Fatal("no live worker to kill")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("task failed after the kill: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%d of %d tasks never completed after the kill", n-i, n)
		}
	}
	st := htex.Stats()
	if st.TasksRedispatched != 2 || st.TasksRequeued != 2 {
		t.Errorf("redispatched (charged) = %d, requeued (free) = %d; want 2 and 2",
			st.TasksRedispatched, st.TasksRequeued)
	}
	if st.ManagersLost != 1 {
		t.Errorf("managers lost = %d, want 1", st.ManagersLost)
	}
}
