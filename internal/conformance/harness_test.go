// Package conformance is the engine's cross-provider conformance corpus: a
// table of golden CWL workflows executed end to end under every execution
// provider (local in-process managers, process-isolated workers, simulated
// batch allocations, network workers over loopback TCP). The same workflow
// must produce byte-identical canonical outputs on all backends — the
// property that makes "which provider" an operational choice instead of a
// semantic one.
package conformance

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cwl"
	"repro/internal/fabric"
	"repro/internal/parsl"
	"repro/internal/provider"
	"repro/internal/yamlx"
)

// TestMain doubles as the worker binary: re-executed with
// PARSL_CWL_WORKER_PROCESS=1 the test binary speaks the worker protocol, so
// the process provider runs against genuine subprocesses.
func TestMain(m *testing.M) {
	if os.Getenv("PARSL_CWL_WORKER_PROCESS") == "1" {
		if err := provider.RunWorker(os.Stdin, os.Stdout, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// providerNames lists every backend the corpus must agree across.
var providerNames = []string{"local", "process", "sim", "net"}

// netSecret authenticates the loopback conformance workers to the
// interchange.
const netSecret = "conformance-secret"

// buildProvider constructs one execution provider for a conformance run.
func buildProvider(t *testing.T, name string) provider.ExecutionProvider {
	t.Helper()
	switch name {
	case "local":
		return &provider.LocalProvider{}
	case "process":
		exe, err := os.Executable()
		if err != nil {
			t.Fatal(err)
		}
		return provider.NewProcessProvider(provider.ProcessOptions{
			Command: []string{exe},
			Env:     []string{"PARSL_CWL_WORKER_PROCESS=1"},
		})
	case "sim":
		return provider.NewSimProvider(provider.SimOptions{
			Nodes:        2,
			CoresPerNode: 4,
			TimeScale:    200 * time.Microsecond,
		})
	case "net":
		// Loopback network fabric: each Launch spawns an in-process worker
		// goroutine that dials the interchange over real TCP and
		// authenticates with the shared secret, so every tool invocation
		// crosses an authenticated socket.
		opts := fabric.Options{
			Addr:            "127.0.0.1:0",
			Secret:          netSecret,
			HeartbeatPeriod: 50 * time.Millisecond,
			AdoptTimeout:    10 * time.Second,
		}
		var np *fabric.NetProvider
		opts.Spawn = func(addr string, block int) error {
			go func() {
				_ = fabric.RunWorker(fabric.ConnectOptions{
					Addr:   addr,
					Secret: netSecret,
					ID:     fmt.Sprintf("conf-%d", block),
				})
			}()
			return nil
		}
		np, err := fabric.Listen(opts)
		if err != nil {
			t.Fatal(err)
		}
		return np
	default:
		t.Fatalf("unknown provider %q", name)
		return nil
	}
}

// runUnderProvider executes one corpus case on the named backend and returns
// its canonical output bytes.
func runUnderProvider(t *testing.T, name string, c Case, fixture string) []byte {
	t.Helper()
	return runWithProvider(t, name, buildProvider(t, name), c, fixture)
}

// runWithProvider executes one corpus case on an already-built provider and
// returns its canonical output bytes. Every provider reuses the same work
// root path (wiped in between), so job directories — which are keyed on
// scope + step + canonical inputs — land on identical absolute paths and the
// outputs can be compared byte for byte.
func runWithProvider(t *testing.T, name string, prov provider.ExecutionProvider, c Case, fixture string) []byte {
	t.Helper()
	workRoot := filepath.Join(fixture, "work")
	if err := os.RemoveAll(workRoot); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		t.Fatal(err)
	}

	htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
		Label:           "htex",
		Provider:        prov,
		WorkersPerNode:  4,
		MaxBlocks:       2,
		InitBlocks:      1,
		HeartbeatPeriod: 50 * time.Millisecond,
	})
	dfk, err := parsl.Load(parsl.Config{Executors: []parsl.Executor{htex}, RunDir: workRoot})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()

	doc, err := cwl.ParseBytes([]byte(c.Doc), fixture, nil)
	if err != nil {
		t.Fatalf("%s: parse: %v", c.Name, err)
	}
	r := core.NewRunner(dfk)
	r.WorkRoot = workRoot
	r.InputsDir = fixture
	r.Scope = "conformance/" + c.Name

	inputs := yamlx.NewMap()
	if c.Inputs != nil {
		inputs = c.Inputs(fixture)
	}
	outputs, err := r.Run(doc, inputs)
	if err != nil {
		t.Fatalf("%s under %s: %v", c.Name, name, err)
	}
	if c.Check != nil {
		c.Check(t, outputs)
	}
	// Remote execution must be real, not a silent in-process fallback: every
	// tool invocation the workflow performs has to cross the pipe (process
	// provider) or the TCP session (net provider).
	if rc, ok := prov.(interface{ RemoteTasks() int64 }); ok {
		if got := rc.RemoteTasks(); got < int64(c.MinToolRuns()) {
			t.Errorf("%s: only %d tasks crossed the %s worker transport, want >= %d",
				c.Name, got, name, c.MinToolRuns())
		}
	}
	return canonicalize(t, outputs, workRoot, fixture)
}

// canonicalize renders an outputs object in provider-independent form: JSON
// with the run's work root and fixture directory replaced by stable markers.
func canonicalize(t *testing.T, outputs *yamlx.Map, workRoot, fixture string) []byte {
	t.Helper()
	if outputs == nil {
		return []byte("null")
	}
	raw, err := outputs.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.ReplaceAll(raw, []byte("file://"+workRoot), []byte("${WORK}"))
	raw = bytes.ReplaceAll(raw, []byte(workRoot), []byte("${WORK}"))
	raw = bytes.ReplaceAll(raw, []byte("file://"+fixture), []byte("${INPUTS}"))
	raw = bytes.ReplaceAll(raw, []byte(fixture), []byte("${INPUTS}"))
	return raw
}

// readOutputFile reads the file behind a File object in an outputs map.
func readOutputFile(t *testing.T, outputs *yamlx.Map, key string) string {
	t.Helper()
	f, _ := outputs.Value(key).(*yamlx.Map)
	if f == nil {
		t.Fatalf("output %q is not a File: %v", key, outputs.Keys())
	}
	data, err := os.ReadFile(f.GetString("path"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestConformanceCorpus is the cross-provider matrix: every corpus workflow
// under every provider, with canonical outputs compared against the local
// baseline byte for byte.
func TestConformanceCorpus(t *testing.T) {
	for _, c := range Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			fixture := t.TempDir()
			if c.Fixture != nil {
				c.Fixture(t, fixture)
			}
			baseline := runUnderProvider(t, providerNames[0], c, fixture)
			for _, name := range providerNames[1:] {
				got := runUnderProvider(t, name, c, fixture)
				if !bytes.Equal(baseline, got) {
					t.Errorf("%s: canonical outputs diverge from %s:\n%s: %s\n%s: %s",
						name, providerNames[0], providerNames[0], baseline, name, got)
				}
			}
		})
	}
}
