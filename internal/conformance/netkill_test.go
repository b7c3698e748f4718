package conformance

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cwl"
	"repro/internal/fabric"
	"repro/internal/parsl"
	"repro/internal/yamlx"
)

// TestNetConnectionKillRedispatch is the network-fabric variant of
// TestProcessWorkerKillRedispatch: instead of SIGKILLing a worker process, it
// severs one block's TCP connection mid-scatter — the network-partition /
// remote-host-loss failure mode — and asserts the heartbeat/redispatch
// machinery recovers: the run succeeds, the lost tasks re-dispatch to
// another worker, and the DFK monitoring stream records no duplicate
// terminal events.
func TestNetConnectionKillRedispatch(t *testing.T) {
	opts := fabric.Options{
		Addr:            "127.0.0.1:0",
		Secret:          netSecret,
		HeartbeatPeriod: 30 * time.Millisecond,
		AdoptTimeout:    10 * time.Second,
	}
	var prov *fabric.NetProvider
	opts.Spawn = func(addr string, block int) error {
		go func() {
			_ = fabric.RunWorker(fabric.ConnectOptions{
				Addr:   addr,
				Secret: netSecret,
				ID:     fmt.Sprintf("kill-%d", block),
			})
		}()
		return nil
	}
	prov, err := fabric.Listen(opts)
	if err != nil {
		t.Fatal(err)
	}
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
	r.Label = "netkill-run"
	// A scope keys step jobs onto deterministic directories, so a task
	// re-dispatched after the kill lands in the same place it started.
	r.Scope = "netkill"
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

	// Wait until tasks are genuinely in flight over the sockets, then sever
	// one live block's connection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no live block with in-flight tasks to sever")
		}
		if blocks := prov.LiveBlocks(); len(blocks) >= 1 && prov.RemoteTasks() >= 2 {
			time.Sleep(100 * time.Millisecond) // land the kill mid-sleep
			if prov.KillConnection(blocks[0]) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("run failed after connection kill: %v", res.err)
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

	// Exactly one terminal event per task: a severed connection's
	// re-dispatched task must complete once, never twice.
	terminal := map[int]int{}
	launches := map[int]int{}
	for _, ev := range dfk.EventsFor("netkill-run") {
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
}
