package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/yamlx"
)

// scatterOutputs is the outputs JSON of an n-wide scatter whose steps each
// wrote one file: n CWL File objects under one output, tagged so different
// runs differ.
func scatterOutputs(t testing.TB, n int, tag string) []byte {
	t.Helper()
	files := make([]any, n)
	for i := range files {
		path := fmt.Sprintf("/srv/parsl-cwl/%s/step-%d/out-%03d.txt", tag, i, i)
		files[i] = yamlx.MapOf(
			"class", "File", "path", path, "location", "file://"+path,
			"basename", filepath.Base(path), "dirname", filepath.Dir(path),
			"nameroot", strings.TrimSuffix(filepath.Base(path), ".txt"), "nameext", ".txt",
			"size", int64(6+i))
	}
	raw, err := yamlx.MapOf("outs", files).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stringOutputs is outputs JSON of exactly size bytes: {"out":"xx…"}.
func stringOutputs(size int) []byte {
	return []byte(`{"out":"` + strings.Repeat("x", size-10) + `"}`)
}

// outputCases are outputs on both sides of packMin.
func outputCases(t *testing.T) map[string][]byte {
	return map[string][]byte{
		"small":       []byte(`{"out":"hi"}`),
		"below-cut":   stringOutputs(packMin - 1),
		"at-cut":      stringOutputs(packMin),
		"above-cut":   stringOutputs(packMin + 1),
		"scatter-32":  scatterOutputs(t, 32, "run-000001"),
		"scatter-128": scatterOutputs(t, 128, "run-000002"),
	}
}

// TestPackedOutputsHeldSmaller checks the held form: outputs at or above
// packMin are deflated and held smaller than their raw size, smaller ones
// are held as the very same bytes, and every form reads back byte-identical.
func TestPackedOutputsHeldSmaller(t *testing.T) {
	for name, raw := range outputCases(t) {
		out := packOutputs(raw)
		if len(raw) >= packMin {
			if !out.deflated || len(out.held) >= len(raw) {
				t.Errorf("%s: %d B held as %d B (deflated %v), want smaller", name, len(raw), len(out.held), out.deflated)
			}
			if cap(out.held) != len(out.held) {
				t.Errorf("%s: held slice has cap %d for %d B", name, cap(out.held), len(out.held))
			}
		} else if out.deflated || len(out.held) != len(raw) || &out.held[0] != &raw[0] {
			t.Errorf("%s: %d B below the cut not held as the raw bytes", name, len(raw))
		}
		if &out.raw[0] != &raw[0] {
			t.Errorf("%s: packing copied the raw bytes", name)
		}
		if got := heldJSON(out.held, out.deflated); !bytes.Equal(got, raw) {
			t.Errorf("%s: held form reads back %d B, want the %d raw B", name, len(got), len(raw))
		}
		t.Logf("%s: %d B held as %d B", name, len(raw), len(out.held))
	}
}

// TestSmallOutputsPackWithoutAllocating pins that outputs below packMin cost
// nothing to pack: no copy and no deflate writer.
func TestSmallOutputsPackWithoutAllocating(t *testing.T) {
	raw := stringOutputs(packMin - 1)
	if n := testing.AllocsPerRun(100, func() { packOutputs(raw) }); n != 0 {
		t.Errorf("packing %d B allocates %.0f times per call", len(raw), n)
	}
}

// TestOutputsRoundTripThroughStoreAndCache finishes one run per case and
// reads its outputs back through every reader: the snapshot Finish returns,
// Get, List, journalRuns, a replay of the journal form into a fresh store,
// a second Finish, and the result cache, which shares the store's held copy.
func TestOutputsRoundTripThroughStoreAndCache(t *testing.T) {
	st := NewRunStore(0)
	rc := NewResultCache(16)
	want := map[string][]byte{}
	for name, raw := range outputCases(t) {
		out := packOutputs(raw)
		snap := st.Create(RunMeta{Name: name, Class: "Workflow"}, &pendingRun{})
		if _, _, ok := st.Start(snap.ID); !ok {
			t.Fatalf("%s: Start failed", name)
		}
		fin, release, ok := st.Finish(snap.ID, out, nil, false)
		release()
		if !ok || fin.State != RunSucceeded || !bytes.Equal(fin.Outputs, raw) {
			t.Fatalf("%s: Finish = %v/%v with %d B outputs", name, ok, fin.State, len(fin.Outputs))
		}
		if again, _, _ := st.Finish(snap.ID, runOutputs{}, nil, false); !bytes.Equal(again.Outputs, raw) {
			t.Errorf("%s: second Finish returned %d B, want %d", name, len(again.Outputs), len(raw))
		}
		if got, _ := st.Get(snap.ID); !bytes.Equal(got.Outputs, raw) {
			t.Errorf("%s: Get returned %d B, want %d", name, len(got.Outputs), len(raw))
		}
		rc.Put(name, out)
		cached, ok := rc.Get(name)
		if !ok || !bytes.Equal(cached.raw, raw) {
			t.Errorf("%s: ResultCache.Get returned %d B, want %d", name, len(cached.raw), len(raw))
		}
		st.mu.Lock()
		stored := st.runs[snap.ID].snap.Outputs
		st.mu.Unlock()
		if &stored[0] != &cached.held[0] || len(stored) != len(out.held) {
			t.Errorf("%s: the store and the cache hold separate copies", name)
		}
		want[snap.ID] = raw
	}
	for _, snap := range st.List() {
		if !bytes.Equal(snap.Outputs, want[snap.ID]) {
			t.Errorf("List: %s has %d B, want %d", snap.ID, len(snap.Outputs), len(want[snap.ID]))
		}
	}
	// A compaction snapshot journals the raw outputs; replaying it restores
	// them byte-identical.
	replayed := NewRunStore(0)
	for _, w := range st.journalRuns(func(string) bool { return true }) {
		if !bytes.Equal(w.Outputs, want[w.ID]) {
			t.Errorf("journalRuns: %s has %d B, want %d", w.ID, len(w.Outputs), len(want[w.ID]))
		}
		line, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back runWire
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatal(err)
		}
		replayed.Restore(RunSnapshot(back.runFields), nil)
	}
	for id, raw := range want {
		if got, ok := replayed.Get(id); !ok || !bytes.Equal(got.Outputs, raw) {
			t.Errorf("replay Restore: %s has %d B, want %d", id, len(got.Outputs), len(raw))
		}
	}
}

// echoExpr returns its string input as its only output, so a run's outputs
// JSON is {"out":"<m>"}.
const echoExpr = `cwlVersion: v1.2
class: ExpressionTool
requirements:
  - class: InlineJavascriptRequirement
inputs:
  m: string
outputs:
  out: string
expression: "${ return {out: inputs.m}; }"
`

// TestLargeOutputsSurviveServiceRestart runs a durable service end to end on
// outputs either side of packMin: each succeeded run reads back
// byte-identical from Get, from a result-cache hit, and after a restart from
// the replayed journal, which holds the raw outputs JSON.
func TestLargeOutputsSurviveServiceRestart(t *testing.T) {
	dataDir, workRoot := t.TempDir(), t.TempDir()
	dfk1, svc1 := durableService(t, dataDir, workRoot)
	svc1.results = NewResultCache(8)
	want := map[string][]byte{}
	for _, size := range []int{64, packMin - 1, packMin, packMin + 1, 3 * packMin} {
		raw := stringOutputs(size)
		req := SubmitRequest{Source: []byte(echoExpr), Inputs: yamlx.MapOf("m", strings.Repeat("x", size-10))}
		snap, err := svc1.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, svc1, snap.ID)
		if final.State != RunSucceeded || !bytes.Equal(final.Outputs, raw) {
			t.Fatalf("size %d: run = %v with %d B outputs, want %d", size, final.State, len(final.Outputs), size)
		}
		hit, err := svc1.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.ResultCached || !bytes.Equal(hit.Outputs, raw) {
			t.Fatalf("size %d: resubmission cached=%v with %d B outputs", size, hit.ResultCached, len(hit.Outputs))
		}
		if got, _ := svc1.Get(hit.ID); !bytes.Equal(got.Outputs, raw) {
			t.Errorf("size %d: cache-hit run reads back %d B", size, len(got.Outputs))
		}
		want[snap.ID], want[hit.ID] = raw, raw
	}
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	dfk1.Cleanup()

	// The journal keeps the outputs as JSON, never deflated.
	var journal []byte
	filepath.WalkDir(dataDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			b, _ := os.ReadFile(path)
			journal = append(journal, b...)
		}
		return nil
	})
	if !bytes.Contains(journal, stringOutputs(3*packMin)) {
		t.Error("the journal does not hold the largest run's raw outputs")
	}

	dfk2, svc2 := durableService(t, dataDir, workRoot)
	defer func() {
		svc2.Close(context.Background())
		dfk2.Cleanup()
	}()
	for id, raw := range want {
		if got, ok := svc2.Get(id); !ok || !got.Restored || !bytes.Equal(got.Outputs, raw) {
			t.Errorf("%s after restart: restored=%v with %d B outputs, want %d", id, got.Restored, len(got.Outputs), len(raw))
		}
	}
}

// FuzzOutputsRoundTrip packs arbitrary bytes, repeated so that inputs reach
// both sides of packMin, and checks the held form reads back byte-identical
// and is never larger than the input.
func FuzzOutputsRoundTrip(f *testing.F) {
	f.Add([]byte(`{"out":"hi"}`), uint8(0))
	f.Add([]byte(`{"class":"File","path":"/tmp/a.txt"},`), uint8(120))
	f.Add([]byte{0xff, 0x00, 0x7f}, uint8(255))
	f.Fuzz(func(t *testing.T, chunk []byte, reps uint8) {
		n := 1 + int(reps)*int(reps)
		if most := (1 << 20) / (len(chunk) + 1); n > most {
			n = most
		}
		raw := bytes.Repeat(chunk, n)
		out := packOutputs(raw)
		if len(out.held) > len(raw) || (out.deflated && len(raw) < packMin) {
			t.Fatalf("%d B held as %d B (deflated %v)", len(raw), len(out.held), out.deflated)
		}
		if got := heldJSON(out.held, out.deflated); !bytes.Equal(got, raw) {
			t.Fatalf("%d B read back as %d different bytes", len(raw), len(got))
		}
	})
}
