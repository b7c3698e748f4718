package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/imaging"
)

// The CWL documents the workloads submit. Every document is self-contained
// (inline run: bodies), as POST /runs requires.

const exprDoc = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: InlineJavascriptRequirement
inputs:
  m: string
outputs:
  out:
    type: string
    outputSource: up/out
steps:
  up:
    run:
      class: ExpressionTool
      requirements:
        - class: InlineJavascriptRequirement
      inputs:
        m: string
      outputs:
        out: string
      expression: "${ return {out: inputs.m.toUpperCase()}; }"
    in: {m: m}
    out: [out]
`

// echoDoc takes a label so mixed_open can mint documents whose text — and
// therefore content hash — is unique.
func echoDoc(label string) string {
	return `cwlVersion: v1.2
class: CommandLineTool
label: ` + label + `
baseCommand: [echo, -n]
inputs:
  message: {type: string, inputBinding: {position: 1}}
outputs:
  out: {type: stdout}
stdout: out.txt
`
}

const scatterWidth = 32

const scatterDoc = `cwlVersion: v1.2
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

const (
	imageCount  = 2
	imageSize   = 96 // corpus PNG edge, pixels
	imageResize = 64
	imageRadius = 1
)

// imageTool is one stage of the paper's §IV pipeline; imgtool resolves
// through the PATH the harness gives serve.
func imageTool(sub, param, typ string) string {
	return `      class: CommandLineTool
      baseCommand: [imgtool, ` + sub + `]
      inputs:
        ` + param + `:
          type: ` + typ + `
          inputBinding: {prefix: --` + param + `}
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
}

// imageDoc scatters the three-stage pipeline over the input images. The tag
// input names the output files, so no two runs share a step's job order:
// with -data-dir the engine memoizes steps, and a repeated job order would
// be a memo hit that does no pixel work.
var imageDoc = `cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
  - class: StepInputExpressionRequirement
inputs:
  images: File[]
  tag: string
  size: int
  sepia: boolean
  radius: int
outputs:
  finals:
    type: File[]
    outputSource: blur_image/output_image
steps:
  resize_image:
    run:
` + imageTool("resize", "size", "int") + `    in:
      input_image: images
      size: size
      output_image:
        source: tag
        valueFrom: $(self)-resized.png
    scatter: [input_image]
    out: [output_image]
  filter_image:
    run:
` + imageTool("filter", "sepia", "boolean") + `    in:
      input_image: resize_image/output_image
      sepia: sepia
      output_image:
        source: tag
        valueFrom: $(self)-filtered.png
    scatter: [input_image]
    out: [output_image]
  blur_image:
    run:
` + imageTool("blur", "radius", "int") + `    in:
      input_image: filter_image/output_image
      radius: radius
      output_image:
        source: tag
        valueFrom: $(self)-blurred.png
    scatter: [input_image]
    out: [output_image]
`

// request is one generated submission and what its outputs must be.
type request struct {
	doc    string
	inputs map[string]any
	tenant int // index into tenantKeys; -1 = no key
	// hot is the index of the repeated (doc, inputs) pair, -1 for a unique
	// request. A hot request must be answered from the result cache.
	hot int
	// want holds the expected output: the upper-cased message (expr), the
	// file contents in order (echo, scatter) or the SHA-256 of each output
	// image.
	want []string
}

// workload is one named traffic mix: one serve configuration, one request
// generator, one output check.
type workload struct {
	name string
	why  string
	// open selects the open loop (seeded arrival schedule) over the closed
	// loop of nproc clients.
	open    bool
	durable bool
	wire    bool
	tenants bool
	images  bool // needs the seeded PNG corpus
	// stages × ⌈width ÷ executor workers⌉ tasks lie on one run's critical
	// path; the budget table multiplies the per-task rows by it.
	stages, width int
	// probes lists the in-process probes that explain this workload.
	probes []string
	// gen makes request i of client c from the workload's seeded source. The
	// request is unique: serve has to execute it.
	gen func(e *env, rng *rand.Rand, c, i int) request
	// check compares a succeeded run's outputs with the request.
	check func(e *env, req request, outputs map[string]any) error
}

// openRate is mixed_open's arrival rate, runs per second.
const openRate = 200

const (
	hotPairs = 16
	// Every coldEvery-th arrival is a unique request, the rest repeat a
	// pair: a fixed 80/20 mix, so the share of runs that fork does not vary
	// from seed to seed; which pair, which tenant and when stay seeded.
	coldEvery = 5
	tenantsN  = 4
	queueOpen = 256
)

var tenantWeights = [tenantsN]int{1, 1, 2, 4}

func tenantKey(i int) string { return fmt.Sprintf("bench-key-%d", i) }

func tenantConfig() string {
	var b strings.Builder
	b.WriteString("tenants:\n")
	for i, w := range tenantWeights {
		fmt.Fprintf(&b, "  - name: t%d\n    key: %s\n    weight: %d\n", i, tenantKey(i), w)
	}
	return b.String()
}

// message is a seeded, unique, shell-safe payload.
func message(rng *rand.Rand, c, i int) string {
	return fmt.Sprintf("msg-%08x-c%d-n%d", rng.Uint32(), c, i)
}

func echoRequest(label string, rng *rand.Rand, c, i int) request {
	m := message(rng, c, i)
	return request{doc: echoDoc(label), inputs: map[string]any{"message": m}, tenant: -1, hot: -1, want: []string{m}}
}

var workloads = []workload{
	{
		name: "expr_mem",
		why:  "fork-free and journal-free: service, runner and cwlexpr do all the work; a persist, provider or fork/exec change must show no change here",
		gen: func(_ *env, rng *rand.Rand, c, i int) request {
			m := message(rng, c, i)
			return request{doc: exprDoc, inputs: map[string]any{"m": m}, tenant: -1, hot: -1, want: []string{strings.ToUpper(m)}}
		},
		check: func(_ *env, req request, out map[string]any) error {
			if got, _ := out["out"].(string); got != req.want[0] {
				return fmt.Errorf("out = %q, want %q", got, req.want[0])
			}
			return nil
		},
		probes: []string{"service.submit_ms", "yamlx.decode_us", "cwl.parse_validate_us", "runner.build_step_index_us", "cwlexpr.eval_us"},
	},
	{
		name:    "echo_durable",
		why:     "one forked echo per run over the journaled path: persist fsync batching and runner stage/fork/collect dominate; cwlexpr and the provider wire are idle",
		durable: true,
		stages:  1, width: 1,
		gen:    func(_ *env, rng *rand.Rand, c, i int) request { return echoRequest("echo", rng, c, i) },
		check:  checkFiles("out"),
		probes: []string{"service.submit_durable_ms", "persist.append_ms", "yamlx.decode_us", "cwl.parse_validate_us", "runner.run_tool_ms", "core.runner_run_ms"},
	},
	{
		name:   "scatter_wire",
		why:    "a 32-wide scatter over process-provider workers: one admission per 32 tasks, so runner scatter, parsl HTEX, the provider codec and the worker do the work; service is a small share",
		wire:   true,
		stages: 1, width: scatterWidth,
		gen: func(_ *env, rng *rand.Rand, c, i int) request {
			msgs := make([]any, scatterWidth)
			want := make([]string, scatterWidth)
			for k := range msgs {
				want[k] = fmt.Sprintf("%s-k%d", message(rng, c, i), k)
				msgs[k] = want[k]
			}
			return request{doc: scatterDoc, inputs: map[string]any{"messages": msgs}, tenant: -1, hot: -1, want: want}
		},
		check:  checkFiles("outs"),
		probes: []string{"service.submit_ms", "cwl.parse_validate_us", "runner.build_step_index_us", "runner.workflow_ms", "parsl.htex_task_us", "provider.pipe_task_us"},
	},
	{
		name:    "image_pipeline",
		why:     "the paper's image workflow (resize, sepia, blur over 2 PNGs), CPU-bound in the tools: an engine change predicts no change; the only File staging and glob output collection",
		durable: true,
		images:  true,
		stages:  3, width: imageCount,
		gen: func(e *env, rng *rand.Rand, c, i int) request {
			files := make([]any, len(e.images))
			for k, p := range e.images {
				files[k] = map[string]any{"class": "File", "path": p}
			}
			return request{
				doc: imageDoc,
				inputs: map[string]any{
					"images": files, "tag": fmt.Sprintf("t%08x-c%d-n%d", rng.Uint32(), c, i),
					"size": imageResize, "sepia": true, "radius": imageRadius,
				},
				tenant: -1, hot: -1, want: e.imageSums,
			}
		},
		check: func(_ *env, req request, out map[string]any) error {
			paths, err := outputPaths(out["finals"])
			if err != nil {
				return err
			}
			if len(paths) != len(req.want) {
				return fmt.Errorf("%d output images, want %d", len(paths), len(req.want))
			}
			for k, p := range paths {
				sum, err := fileSHA256(p)
				if err != nil {
					return err
				}
				if sum != req.want[k] {
					return fmt.Errorf("image %d: sha256 %s, want %s", k, sum, req.want[k])
				}
			}
			return nil
		},
		probes: []string{"service.submit_durable_ms", "cwl.parse_validate_us", "runner.build_step_index_us", "runner.image_tool_ms"},
	},
	{
		name:    "mixed_open",
		why:     "open loop, 200 arrivals/s, 4 keyed tenants: 80% repeat one of 16 (doc, inputs) pairs and are result-cache hits, 20% are unique docs that parse, journal and execute; trading hits for misses shows here",
		open:    true,
		durable: true,
		tenants: true,
		stages:  1, width: 1,
		gen: func(_ *env, rng *rand.Rand, c, i int) request {
			req := echoRequest(fmt.Sprintf("cold-%08x-c%d-n%d", rng.Uint32(), c, i), rng, c, i)
			req.tenant = rng.Intn(tenantsN)
			return req
		},
		check:  checkFiles("out"),
		probes: []string{"service.submit_durable_ms", "tenant.authenticate_us", "yamlx.decode_us", "cwl.parse_validate_us"},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hotRequests are mixed_open's repeated (doc, inputs) pairs.
func hotRequests(rng *rand.Rand) []request {
	reqs := make([]request, hotPairs)
	for k := range reqs {
		reqs[k] = echoRequest(fmt.Sprintf("hot-%02d", k), rng, 0, k)
		reqs[k].hot = k
	}
	return reqs
}

// checkFiles verifies that output key holds a File (or File[]) whose
// contents equal req.want, in order.
func checkFiles(key string) func(*env, request, map[string]any) error {
	return func(_ *env, req request, out map[string]any) error {
		paths, err := outputPaths(out[key])
		if err != nil {
			return fmt.Errorf("output %s: %w", key, err)
		}
		if len(paths) != len(req.want) {
			return fmt.Errorf("output %s: %d files, want %d", key, len(paths), len(req.want))
		}
		for k, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			if string(data) != req.want[k] {
				return fmt.Errorf("output %s[%d] = %q, want %q", key, k, data, req.want[k])
			}
		}
		return nil
	}
}

// outputPaths extracts the path of a File object or of each File in a list.
func outputPaths(v any) ([]string, error) {
	one := func(v any) (string, error) {
		m, _ := v.(map[string]any)
		p, _ := m["path"].(string)
		if p == "" {
			return "", fmt.Errorf("not a File with a path: %v", v)
		}
		return p, nil
	}
	if list, ok := v.([]any); ok {
		paths := make([]string, len(list))
		for i, item := range list {
			p, err := one(item)
			if err != nil {
				return nil, err
			}
			paths[i] = p
		}
		return paths, nil
	}
	p, err := one(v)
	if err != nil {
		return nil, err
	}
	return []string{p}, nil
}

func fileSHA256(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// makeImages writes the seeded PNG corpus and computes, in-process with the
// same internal/imaging operations imgtool applies, the SHA-256 each
// pipeline output must have. Stages round-trip through PNG files exactly as
// the tools do.
func makeImages(dir string, seed int64) (paths, sums []string, err error) {
	paths, err = bench.GenerateImageCorpus(filepath.Join(dir, "corpus"), imageCount, imageSize, seed)
	if err != nil {
		return nil, nil, err
	}
	tmp := filepath.Join(dir, "expected.png")
	for _, p := range paths {
		img, err := imaging.Decode(p)
		if err != nil {
			return nil, nil, err
		}
		resized, err := imaging.Resize(img, imageResize, imageResize, imaging.Bilinear)
		if err != nil {
			return nil, nil, err
		}
		if err := imaging.Encode(tmp, resized); err != nil {
			return nil, nil, err
		}
		if img, err = imaging.Decode(tmp); err != nil {
			return nil, nil, err
		}
		if err := imaging.Encode(tmp, imaging.Sepia(img)); err != nil {
			return nil, nil, err
		}
		if img, err = imaging.Decode(tmp); err != nil {
			return nil, nil, err
		}
		blurred, err := imaging.BoxBlur(img, imageRadius)
		if err != nil {
			return nil, nil, err
		}
		if err := imaging.Encode(tmp, blurred); err != nil {
			return nil, nil, err
		}
		sum, err := fileSHA256(tmp)
		if err != nil {
			return nil, nil, err
		}
		sums = append(sums, sum)
	}
	return paths, sums, nil
}
