package service

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/yamlx"
)

// scatterEcho is a 32-wide scatter of one echo tool, the shape of the
// benchmark's scatter_wire runs.
const scatterEcho = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
inputs:
  messages: string[]
outputs:
  outs:
    type: File[]
    outputSource: say/out
steps:
  say:
    run:
      class: CommandLineTool
      baseCommand: [echo, -n]
      inputs:
        message: {type: string, inputBinding: {position: 1}}
      outputs:
        out: {type: stdout}
      stdout: out.txt
    in: {message: messages}
    scatter: [message]
    out: [out]
`

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedBytesPerScatterRun is the retention guard: each finished run is
// kept once — its task history as 32-byte records in the DFK label index,
// its outputs JSON held deflated (it is over packMin) in one copy shared by
// the run store and the result cache, its spans derived on read. It finishes
// 32-task scatter runs and bounds the heap that stays live per run: about
// 8 KB here, where raw outputs, 48-byte event records and a task-state table
// cost 23 KB, and decoded result trees, a second copy of every task event
// and a stored span per task cost 74 KB.
func TestRetainedBytesPerScatterRun(t *testing.T) {
	if testing.Short() {
		t.Skip("forks 32 processes per run")
	}
	const width, runs = 32, 12
	svc, _ := newTestService(t, Options{Workers: 2, ResultCacheSize: 1024})
	run := func(i int) {
		msgs := make([]any, width)
		for j := range msgs {
			msgs[j] = fmt.Sprintf("run %d task %d", i, j)
		}
		snap, err := svc.Submit(SubmitRequest{Source: []byte(scatterEcho), Inputs: yamlx.MapOf("messages", msgs)})
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, svc, snap.ID); final.State != RunSucceeded {
			t.Fatalf("run %d: %s %s", i, final.State, final.Error)
		}
	}
	// Warm the document cache and the engine's pools before measuring.
	run(-2)
	run(-1)
	before := liveHeap()
	for i := 0; i < runs; i++ {
		run(i)
	}
	perRun := (float64(liveHeap()) - float64(before)) / runs
	t.Logf("live heap per finished %d-task run: %.0f B", width, perRun)
	if perRun > 16<<10 {
		t.Errorf("each finished %d-task run keeps %.0f B live, want at most %d", width, perRun, 16<<10)
	}
}

// TestRetainedBytesPerMemoEntry is the same guard for a durable service,
// where every tool task is memoized so a restarted run can resume from the
// memo table: each finished echo run adds one memo entry, which is kept once,
// as the codec bytes its journal record also carries. It bounds the heap that
// stays live per finished run: about 1.8 KB here, where holding each entry as
// a live future and its decoded output tree cost 2.9 KB.
func TestRetainedBytesPerMemoEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("forks one process per run")
	}
	const runs = 200
	dfk, svc := durableService(t, t.TempDir(), t.TempDir())
	defer func() {
		svc.Close(context.Background())
		dfk.Cleanup()
	}()
	run := func(i int) {
		snap, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", fmt.Sprintf("durable run %d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, svc, snap.ID); final.State != RunSucceeded {
			t.Fatalf("run %d: %s %s", i, final.State, final.Error)
		}
	}
	run(-2)
	run(-1)
	before := liveHeap()
	for i := 0; i < runs; i++ {
		run(i)
	}
	perRun := (float64(liveHeap()) - float64(before)) / runs
	if n := dfk.IndexStats().MemoEntries; n < runs {
		t.Fatalf("memo table holds %d entries after %d runs; the runs were not memoized", n, runs)
	}
	t.Logf("live heap per finished memoized echo run: %.0f B", perRun)
	if perRun > 2350 {
		t.Errorf("each finished memoized run keeps %.0f B live, want at most 2350", perRun)
	}
}
