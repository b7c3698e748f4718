package cwlparsl

// End-to-end integration tests: the paper's complete §IV image workflow —
// CWL files on disk, the real imgtool binary, real PNGs — executed by all
// three runner architectures. TestMain builds imgtool once.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cwl"
	"repro/internal/imaging"
	"repro/internal/parsl"
	"repro/internal/provider"
	"repro/internal/runners/cwltoolsim"
	"repro/internal/runners/toilsim"
	"repro/internal/yamlx"
)

var imgtoolOK bool

func TestMain(m *testing.M) {
	// Worker mode: the ProcessProvider benchmarks re-execute this test
	// binary as a protocol worker instead of requiring a prebuilt
	// parsl-cwl-worker on PATH.
	if os.Getenv("PARSL_CWL_WORKER_PROCESS") == "1" {
		if err := provider.RunWorker(os.Stdin, os.Stdout, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	dir, err := os.MkdirTemp("", "imgtool-bin-")
	if err == nil {
		build := exec.Command("go", "build", "-o", filepath.Join(dir, "imgtool"), "./cmd/imgtool")
		if out, err := build.CombinedOutput(); err == nil {
			os.Setenv("PATH", dir+string(os.PathListSeparator)+os.Getenv("PATH"))
			imgtoolOK = true
		} else {
			fmt.Fprintf(os.Stderr, "integration: imgtool build failed: %v\n%s", err, out)
		}
	}
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

const integToolTemplate = `cwlVersion: v1.2
class: CommandLineTool
baseCommand: [imgtool, %s]
inputs:
  %s:
    type: %s
    inputBinding: {prefix: --%s}
  input_image:
    type: File
    inputBinding: {position: 1}
  output_image:
    type: string
    inputBinding: {position: 2}
outputs:
  output_image:
    type: File
    outputBinding:
      glob: $(inputs.output_image)
`

const integWorkflow = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: StepInputExpressionRequirement
inputs:
  input_image: File
  size: int
  sepia: boolean
  radius: int
outputs:
  final_output:
    type: File
    outputSource: blur_image/output_image
steps:
  resize_image:
    run: resize_image.cwl
    in:
      input_image: input_image
      size: size
      output_image: {valueFrom: "resized.png"}
    out: [output_image]
  filter_image:
    run: filter_image.cwl
    in:
      input_image: resize_image/output_image
      sepia: sepia
      output_image: {valueFrom: "filtered.png"}
    out: [output_image]
  blur_image:
    run: blur_image.cwl
    in:
      input_image: filter_image/output_image
      radius: radius
      output_image: {valueFrom: "blurred.png"}
    out: [output_image]
`

// writeImageWorkflow stages the CWL files and one input image; it returns
// the workflow path and the image path.
func writeImageWorkflow(t *testing.T) (string, string) {
	t.Helper()
	if !imgtoolOK {
		t.Skip("imgtool build unavailable")
	}
	dir := t.TempDir()
	files := map[string]string{
		"workflow.cwl":     integWorkflow,
		"resize_image.cwl": fmt.Sprintf(integToolTemplate, "resize", "size", "int", "size"),
		"filter_image.cwl": fmt.Sprintf(integToolTemplate, "filter", "sepia", "boolean", "sepia"),
		"blur_image.cwl":   fmt.Sprintf(integToolTemplate, "blur", "radius", "int", "radius"),
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	imgs, err := bench.GenerateImageCorpus(filepath.Join(dir, "corpus"), 1, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "workflow.cwl"), imgs[0]
}

func integInputs(img string) *yamlx.Map {
	return yamlx.MapOf(
		"input_image", img,
		"size", int64(32),
		"sepia", true,
		"radius", int64(1),
	)
}

// verifyOutput checks the workflow's final image end to end.
func verifyOutput(t *testing.T, outputs *yamlx.Map) {
	t.Helper()
	f, ok := outputs.Value("final_output").(*yamlx.Map)
	if !ok {
		t.Fatalf("final_output = %#v", outputs.Value("final_output"))
	}
	img, err := imaging.Decode(f.GetString("path"))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 32 || img.Bounds().Dy() != 32 {
		t.Errorf("output dimensions = %v, want 32x32", img.Bounds())
	}
}

func TestEndToEndParslRunner(t *testing.T) {
	wfPath, img := writeImageWorkflow(t)
	doc, err := cwl.LoadFile(wfPath)
	if err != nil {
		t.Fatal(err)
	}
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 4)},
		RunDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	r := core.NewRunner(dfk)
	out, err := r.Run(doc, integInputs(img))
	if err != nil {
		t.Fatal(err)
	}
	verifyOutput(t, out)
	// Exactly three Parsl tasks executed (one per stage).
	if got := dfk.StateCounts()[parsl.StateDone]; got != 3 {
		t.Errorf("tasks done = %d, want 3", got)
	}
}

func TestEndToEndParslHTEX(t *testing.T) {
	wfPath, img := writeImageWorkflow(t)
	doc, err := cwl.LoadFile(wfPath)
	if err != nil {
		t.Fatal(err)
	}
	htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
		Label: "htex", WorkersPerNode: 2, MaxBlocks: 2, InitBlocks: 1,
	})
	dfk, err := parsl.Load(parsl.Config{Executors: []parsl.Executor{htex}, RunDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	out, err := core.NewRunner(dfk).Run(doc, integInputs(img))
	if err != nil {
		t.Fatal(err)
	}
	verifyOutput(t, out)
}

func TestEndToEndCWLToolArchitecture(t *testing.T) {
	wfPath, img := writeImageWorkflow(t)
	doc, err := cwl.LoadFile(wfPath)
	if err != nil {
		t.Fatal(err)
	}
	r := &cwltoolsim.Runner{Parallelism: 4, WorkRoot: t.TempDir()}
	out, err := r.RunDocument(doc, integInputs(img))
	if err != nil {
		t.Fatal(err)
	}
	verifyOutput(t, out)
	if r.StepsRun() != 3 {
		t.Errorf("steps = %d", r.StepsRun())
	}
}

func TestEndToEndToilArchitecture(t *testing.T) {
	wfPath, img := writeImageWorkflow(t)
	doc, err := cwl.LoadFile(wfPath)
	if err != nil {
		t.Fatal(err)
	}
	store := t.TempDir()
	r := &toilsim.Runner{Parallelism: 4, WorkRoot: t.TempDir(), JobStoreDir: store}
	out, err := r.RunDocument(doc, integInputs(img))
	if err != nil {
		t.Fatal(err)
	}
	verifyOutput(t, out)
	done, _ := filepath.Glob(filepath.Join(store, "job-*.done"))
	if len(done) != 3 {
		t.Errorf("job store done entries = %d", len(done))
	}
}

// TestRunnersAgree verifies all three architectures produce byte-identical
// final images for the same inputs — the CWL semantics are shared, only
// dispatch differs.
func TestRunnersAgree(t *testing.T) {
	wfPath, img := writeImageWorkflow(t)
	doc, err := cwl.LoadFile(wfPath)
	if err != nil {
		t.Fatal(err)
	}
	read := func(outputs *yamlx.Map) []byte {
		f := outputs.Value("final_output").(*yamlx.Map)
		data, err := os.ReadFile(f.GetString("path"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	ct := &cwltoolsim.Runner{Parallelism: 2, WorkRoot: t.TempDir()}
	ctOut, err := ct.RunDocument(doc, integInputs(img))
	if err != nil {
		t.Fatal(err)
	}
	toil := &toilsim.Runner{Parallelism: 2, WorkRoot: t.TempDir(), JobStoreDir: t.TempDir()}
	toilOut, err := toil.RunDocument(doc, integInputs(img))
	if err != nil {
		t.Fatal(err)
	}
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 2)},
		RunDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	parslOut, err := core.NewRunner(dfk).Run(doc, integInputs(img))
	if err != nil {
		t.Fatal(err)
	}

	a, b, c := read(ctOut), read(toilOut), read(parslOut)
	if string(a) != string(b) || string(b) != string(c) {
		t.Errorf("runner outputs differ: cwltool=%d toil=%d parsl=%d bytes", len(a), len(b), len(c))
	}
}

// TestParslCWLCLIEquivalent drives the §III-B flow through the library the
// way cmd/parsl-cwl does: config → document → inputs file → outputs JSON.
func TestParslCWLCLIEquivalent(t *testing.T) {
	dir := t.TempDir()
	toolPath := filepath.Join(dir, "echo.cwl")
	os.WriteFile(toolPath, []byte(`cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message: {type: string, inputBinding: {position: 1}}
outputs:
  output: {type: stdout}
stdout: hello.txt
`), 0o644)
	cfgPath := filepath.Join(dir, "config.yml")
	os.WriteFile(cfgPath, []byte("executor: thread-pool\nworkers-per-node: 2\nrun-dir: "+dir+"\n"), 0o644)
	inputsPath := filepath.Join(dir, "inputs.yml")
	os.WriteFile(inputsPath, []byte("message: from-inputs-yml\n"), 0o644)

	dfk, err := LoadConfigFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	doc, err := LoadCWL(toolPath)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(inputsPath)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := core.ParseInputValues(data)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(dfk)
	r.WorkRoot = dir
	out, err := r.Run(doc, inputs)
	if err != nil {
		t.Fatal(err)
	}
	f := out.Value("output").(*yamlx.Map)
	content, _ := os.ReadFile(f.GetString("path"))
	if string(content) != "from-inputs-yml\n" {
		t.Errorf("content = %q", content)
	}
}
