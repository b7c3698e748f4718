// Command bench-harness regenerates the paper's evaluation artifacts. Each
// experiment prints the rows/series the paper reports (see EXPERIMENTS.md
// for the paper-vs-measured comparison).
//
// Usage:
//
//	bench-harness -exp fig1a        # Fig. 1a: 3-node image workflow sweep
//	bench-harness -exp fig1b        # Fig. 1b: single-node sweep
//	bench-harness -exp fig2         # Fig. 2: expression scaling 2..1024 words
//	bench-harness -exp abl-expr     # ablation: real interpreter eval times
//	bench-harness -exp abl-scatter  # ablation: scatter width vs makespan
//	bench-harness -exp abl-overhead # ablation: serial dispatch sweep
//	bench-harness -exp hotpath      # engine overhead: expr scatter, deep chain, fan-in
//	bench-harness -exp provider     # provider layer: in-process vs pipe-protocol workers
//	bench-harness -exp all
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/provider"
)

func main() {
	// Worker mode: the provider experiment re-executes this binary as a
	// protocol worker, so the harness needs no external parsl-cwl-worker.
	if os.Getenv("PARSL_CWL_WORKER_PROCESS") == "1" {
		if err := provider.RunWorker(os.Stdin, os.Stdout, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench-harness worker:", err)
			os.Exit(1)
		}
		return
	}
	exp := flag.String("exp", "all", "experiment id: fig1a|fig1b|fig2|abl-expr|abl-scatter|abl-overhead|hotpath|provider|all")
	flag.Parse()
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "bench-harness:", err)
		os.Exit(1)
	}
}

func run(exp string) error {
	run := func(id string) error {
		switch id {
		case "fig1a":
			series, err := bench.Fig1a()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatSeries(
				"Fig 1a — CWL image workflow on three nodes (3x48 cores), simulated makespan",
				"images", "seconds", series))
		case "fig1b":
			series, err := bench.Fig1b()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatSeries(
				"Fig 1b — CWL image workflow on one node (48 cores), simulated makespan",
				"images", "seconds", series))
		case "fig2":
			fmt.Print(bench.FormatSeries(
				"Fig 2 — expression evaluation: InlineJavaScript (cwltool, toil) vs InlinePython (parsl-cwl)",
				"words", "seconds", bench.Fig2()))
		case "abl-expr":
			fmt.Println("# Ablation — measured per-evaluation cost of this repo's real interpreters")
			fmt.Println("# (in-process; the JS column lacks the node-spawn cost that dominates cwltool)")
			fmt.Printf("%-10s %14s %14s\n", "words", "js-seconds", "py-seconds")
			for _, w := range bench.Fig2WordCounts {
				js, err := bench.MeasureExprEval("js", w)
				if err != nil {
					return err
				}
				py, err := bench.MeasureExprEval("py", w)
				if err != nil {
					return err
				}
				fmt.Printf("%-10d %14.6f %14.6f\n", w, js, py)
			}
		case "abl-scatter":
			series, err := bench.AblationScatterWidth(bench.PaperThreeNode(), 256)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatSeries(
				"Ablation — makespan vs available width (256 images, 3 nodes)",
				"width", "seconds", series))
		case "abl-overhead":
			series, err := bench.AblationDispatchOverhead(500)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatSeries(
				"Ablation — serial dispatch cost sweep (500 images; x = sweep index over 1,5,10,20,50,100 ms)",
				"idx", "seconds", series))
		case "hotpath":
			fmt.Println("# Hot path — engine overhead per workflow execution (inline submitter, no subprocesses)")
			fmt.Printf("%-16s %8s %16s %14s\n", "workload", "n", "sec/execution", "tasks/s")
			for _, w := range []struct {
				kind string
				n    int
			}{
				{"expr-scatter", 1024},
				{"deep-chain", 500},
				{"wide-fanin", 256},
			} {
				sec, err := bench.MeasureHotPath(w.kind, w.n, 5)
				if err != nil {
					return err
				}
				fmt.Printf("%-16s %8d %16.6f %14.0f\n", w.kind, w.n, sec, float64(w.n)/sec)
			}
		case "provider":
			fmt.Println("# Provider layer — echo-task throughput per backend (one block)")
			fmt.Println("# process = real worker subprocess over the length-prefixed JSON pipe protocol")
			self, err := os.Executable()
			if err != nil {
				return err
			}
			env := []string{"PARSL_CWL_WORKER_PROCESS=1"}
			fmt.Printf("%-10s %8s %14s\n", "provider", "workers", "tasks/s")
			for _, row := range []struct {
				name    string
				workers int
			}{
				{"local", 1}, {"local", 8},
				{"process", 1}, {"process", 8},
			} {
				res, err := bench.MeasureProviderThroughput(row.name, []string{self}, env, row.workers, 20000)
				if err != nil {
					return err
				}
				fmt.Printf("%-10s %8d %14.0f\n", row.name, row.workers, res.TasksPerSec)
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		fmt.Println()
		return nil
	}
	if exp == "all" {
		for _, id := range []string{"fig1a", "fig1b", "fig2", "abl-expr", "abl-scatter", "abl-overhead", "hotpath", "provider"} {
			if err := run(id); err != nil {
				return err
			}
		}
		return nil
	}
	return run(exp)
}
