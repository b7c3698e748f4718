// Command benchmark is the repository's load harness. It builds
// parsl-cwl-serve, parsl-cwl-worker and imgtool from the working tree,
// starts a live serve process per workload, drives it over HTTP, checks
// every run's outputs and prints every metric by name with its unit.
//
//	go run ./benchmark                                  # five workloads, all metrics
//	go run ./benchmark -workloads expr_mem -duration 5s
//	go run ./benchmark -calibrate                       # measure bounds into BENCHMARK.json
//	go run ./benchmark -check                           # two groups of sets agree within the bounds
//	go run ./benchmark --workload expr_mem --seed 3 --seconds 10 --trace 0   # one driver run
//
// See README.md in this directory for what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workRoot holds everything the harness writes: built binaries and the
// per-invocation scratch directories. It is relative to the working
// directory, which must be the repository root.
const workRoot = ".bench_build"

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	workloads  string
	duration   time.Duration
	coldStarts int
	repeat     int
	calibrate  bool
	check      bool
	out        string
	traceOut   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "driver mode: run this one workload and print one JSON result line")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input (messages, doc labels, PNG corpus, arrival schedule)")
	fs.IntVar(&o.seconds, "seconds", 0, "driver mode: seconds to measure (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	fs.StringVar(&o.workloads, "workloads", "", "comma-separated workloads to run (default all)")
	fs.DurationVar(&o.duration, "duration", 15*time.Second, "timed window per workload")
	fs.IntVar(&o.coldStarts, "cold-starts", 5, "cold starts behind setup_s")
	fs.IntVar(&o.repeat, "repeat", 1, "full sets to run; each set uses the next seed")
	fs.BoolVar(&o.calibrate, "calibrate", false, "run -repeat (default 5) driver-length sets and write measured bounds into BENCHMARK.json")
	fs.BoolVar(&o.check, "check", false, "run two interleaved groups of driver-length sets (3 each, or -repeat) and fail if a metric's group medians differ by more than its bound")
	fs.StringVar(&o.out, "out", "", "write the full result as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	bf, err := loadBenchFile()
	if err != nil {
		return err
	}
	all, err := execute(ctx, o, bf)
	if err != nil {
		return err
	}
	if o.workload != "" {
		return printDriverLine(bf, all[0][0], o.trace == 1)
	}
	var problems []string
	for _, set := range all {
		for _, res := range set {
			w, _ := findWorkload(res.Workload)
			if res.Failed > 0 && !w.open {
				problems = append(problems, fmt.Sprintf("%s: %d of %d runs failed: %s", res.Workload, res.Failed, res.Attempted, res.FirstErr))
			}
			for _, why := range res.Invalid {
				problems = append(problems, res.Workload+": invalid: "+why)
			}
		}
	}
	rep := newReport(all)
	if len(all) > 1 {
		rep.printSpread()
	}
	if o.calibrate {
		if err := calibrate(bf, rep); err != nil {
			return err
		}
	}
	if o.check {
		problems = append(problems, checkAgreement(bf, all)...)
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "\n"))
	}
	return nil
}

// checkGroup is how many sets each side of -check has. Two single sets
// disagree on setup_s, a few milliseconds measured five times, about every
// other time on the reference box; the medians of three did not in ten
// trials drawn from the calibration runs.
const checkGroup = 3

// plans resolves the options to one plan and a number of sets.
func plans(o options, bf *benchFile) (plan, int) {
	switch {
	case o.workload != "":
		seconds := o.seconds
		if seconds <= 0 {
			seconds = bf.RunSeconds
		}
		return driverPlan(time.Duration(seconds)*time.Second, o.trace == 1), 1
	case o.calibrate:
		// Exactly what the driver runs with --trace 0.
		return driverPlan(time.Duration(bf.RunSeconds)*time.Second, false), max(o.repeat, 5)
	case o.check:
		// The same plus a short traced pass, for the counts that must repeat
		// exactly.
		pl := driverPlan(time.Duration(bf.RunSeconds)*time.Second, false)
		pl.traced = 2 * time.Second
		return pl, 2 * max(o.repeat, checkGroup)
	}
	return fullPlan(o.duration, o.coldStarts), max(o.repeat, 1)
}

// execute builds the binaries and takes every selected workload through its
// plan, set by set; set k uses seed+k. It writes -out and -trace-out.
func execute(ctx context.Context, o options, bf *benchFile) ([][]*result, error) {
	selected, err := selectWorkloads(o)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(workRoot)
	if err != nil {
		return nil, err
	}
	binDir := filepath.Join(root, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	spreadChildren(root)
	buildS, err := build(binDir)
	if err != nil {
		return nil, err
	}
	// imgtool resolves through PATH for the in-process probes too.
	os.Setenv("PATH", binDir+string(os.PathListSeparator)+os.Getenv("PATH"))
	pl, sets := plans(o, bf)
	quiet := o.workload != ""
	tr := &tracer{keep: o.traceOut != ""}
	var all [][]*result
	for k := 0; k < sets; k++ {
		var set []*result
		for _, w := range selected {
			e := &env{nproc: runtime.NumCPU(), seed: o.seed + int64(k), root: root, binDir: binDir, buildS: buildS}
			if !quiet {
				fmt.Printf("\n== %s  (set %d of %d, seed %d) ==\n", w.name, k+1, sets, e.seed)
			}
			res, err := runWorkload(ctx, e, w, pl, tr)
			if err != nil {
				return nil, err
			}
			if !quiet {
				printResult(w, res)
			}
			set = append(set, res)
		}
		all = append(all, set)
	}
	if o.out != "" {
		if err := newReport(all).write(o.out); err != nil {
			return nil, err
		}
	}
	if o.traceOut != "" {
		if err := tr.writeJSONL(o.traceOut); err != nil {
			return nil, err
		}
	}
	return all, nil
}

func selectWorkloads(o options) ([]workload, error) {
	names := o.workloads
	if o.workload != "" {
		names = o.workload
	}
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		w, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

// printDriverLine prints the one JSON object the benchmark driver reads: the
// end_to_end metrics of BENCHMARK.json with tracing off, its per_layer
// metrics with tracing on. A failed or invalid run still prints its line,
// then exits non-zero.
func printDriverLine(bf *benchFile, res *result, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := bf.PerLayer
	if !trace {
		defs = nil
		for _, m := range bf.EndToEnd {
			defs = append(defs, m.metricDef)
		}
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{Value: res.Values[d.Name], Unit: d.Unit}
	}
	correct := res.Failed == 0 && len(res.Invalid) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%s: %d of %d runs failed (%s); invalid: %v", res.Workload, res.Failed, res.Attempted, res.FirstErr, res.Invalid)
	}
	return nil
}

// commit is the working tree's HEAD, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
