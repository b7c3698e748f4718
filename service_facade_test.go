package cwlparsl

import (
	"context"
	"testing"
	"time"
)

// TestFacadeService drives the submission service end to end through the
// public facade: submit, wait, inspect outputs and events.
func TestFacadeService(t *testing.T) {
	dir := t.TempDir()
	dfk, err := LoadConfig(ConfigSpec{Executor: "thread-pool", WorkersPerNode: 4, Nodes: 1, Provider: "local", RunDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	svc, err := NewService(dfk, ServiceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	snap, err := svc.Submit(SubmitRequest{
		Source: []byte(`cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message: {type: string, inputBinding: {position: 1}}
outputs:
  output: {type: stdout}
stdout: out.txt
`),
		Inputs: MapOf("message", "facade"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != RunQueued {
		t.Errorf("initial state = %v", snap.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := svc.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != RunSucceeded {
		t.Fatalf("state = %v (error %q)", final.State, final.Error)
	}
	if final.OutputMap().Value("output") == nil {
		t.Errorf("outputs = %s", final.Outputs)
	}
	events, ok := svc.Events(snap.ID)
	if !ok || len(events) == 0 {
		t.Errorf("events = %v ok=%v", events, ok)
	}
}
