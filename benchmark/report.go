package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

const benchFileName = "BENCHMARK.json"

// benchFile mirrors BENCHMARK.json at the repository root.
type benchFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []benchWork    `json:"workloads"`
	EndToEnd   []benchBounded `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type benchWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchBounded struct {
	metricDef
	Bound float64 `json:"bound"`
}

// Limits BENCHMARK.json must respect.
const (
	maxBound      = 0.25
	minBound      = 0.05
	demoteSpread  = 0.10
	defaultBound  = 0.10
	defaultRunSec = 10
)

// defaultBenchFile is the file before any calibration: every end-to-end
// metric gated at defaultBound, failed_share among the per-layer metrics.
func defaultBenchFile() *benchFile {
	bf := &benchFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSec,
	}
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, benchWork{Name: w.name, Why: w.why})
	}
	for _, d := range endToEndDefs {
		if d.Name == "failed_share" {
			bf.PerLayer = append(bf.PerLayer, d)
			continue
		}
		bf.EndToEnd = append(bf.EndToEnd, benchBounded{metricDef: d, Bound: defaultBound})
	}
	bf.PerLayer = append(bf.PerLayer, perLayerDefs...)
	return bf
}

func loadBenchFile() (*benchFile, error) {
	data, err := os.ReadFile(benchFileName)
	if errors.Is(err, fs.ErrNotExist) {
		return defaultBenchFile(), nil
	}
	if err != nil {
		return nil, err
	}
	bf := &benchFile{}
	if err := json.Unmarshal(data, bf); err != nil {
		return nil, fmt.Errorf("%s: %w", benchFileName, err)
	}
	if bf.RunSeconds <= 0 {
		bf.RunSeconds = defaultRunSec
	}
	return bf, nil
}

func (bf *benchFile) save() error {
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchFileName, append(data, '\n'), 0o644)
}

// printResult prints one workload's metrics in catalogue order, then the
// budget table and the span self times.
func printResult(w workload, res *result) {
	loop := fmt.Sprintf("closed loop, %d clients", runtime.NumCPU())
	if w.open {
		loop = fmt.Sprintf("open loop, %d arrivals/s", openRate)
	}
	fmt.Printf("%s; %d runs attempted, %d failed\n", loop, res.Attempted, res.Failed)
	section := func(title string, defs []metricDef) {
		fmt.Printf("\n  %s\n", title)
		for _, d := range defs {
			v, ok := res.Values[d.Name]
			if !ok {
				continue
			}
			n := ""
			if c := res.Samples[d.Name]; c > 0 {
				n = fmt.Sprintf("n=%d", c)
			}
			fmt.Printf("    %-34s %14.4f %-7s %s\n", d.Name, v, d.Unit, n)
		}
	}
	section("end-to-end (tracing off; timings are p50/p95 of the window)", endToEndDefs)
	section("per-layer", perLayerDefs)
	if len(res.Budget) > 0 {
		fmt.Printf("\n  one-client latency budget\n")
		for _, r := range res.Budget {
			fmt.Printf("    %-34s %14.4f ms\n", r.Name, r.Ms)
		}
	}
	if len(res.SelfMs) > 0 {
		fmt.Printf("\n  span self time per run, median (traced pass)\n")
		names := make([]string, 0, len(res.SelfMs))
		for name := range res.SelfMs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %-34s %14.4f ms\n", name, res.SelfMs[name])
		}
	}
	for _, why := range res.Invalid {
		fmt.Printf("\n  INVALID: %s\n", why)
	}
	if res.FirstErr != "" {
		fmt.Printf("\n  first failure: %s\n", res.FirstErr)
	}
}

// report is the -out file: the environment, every set's results, and per
// workload and metric the summary across sets.
type report struct {
	Env struct {
		NProc      int    `json:"nproc"`
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Commit     string `json:"commit"`
		Time       string `json:"time"`
	} `json:"env"`
	Sets    [][]*result                   `json:"sets"`
	Summary map[string]map[string]summary `json:"summary"`
}

func newReport(sets [][]*result) *report {
	r := &report{Sets: sets, Summary: map[string]map[string]summary{}}
	r.Env.NProc = runtime.NumCPU()
	r.Env.GoVersion = runtime.Version()
	r.Env.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Env.Commit = commit()
	r.Env.Time = time.Now().UTC().Format(time.RFC3339)
	values := map[string]map[string][]float64{}
	for _, set := range sets {
		for _, res := range set {
			if values[res.Workload] == nil {
				values[res.Workload] = map[string][]float64{}
			}
			for name, v := range res.Values {
				values[res.Workload][name] = append(values[res.Workload][name], v)
			}
		}
	}
	for wl, metrics := range values {
		r.Summary[wl] = map[string]summary{}
		for name, vals := range metrics {
			r.Summary[wl][name] = summarize(vals)
		}
	}
	return r
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSpread prints, per workload, each end-to-end metric's median across
// sets with the quartile distance and the largest deviation as shares of it.
func (r *report) printSpread() {
	fmt.Printf("\n== spread across %d sets ==\n", len(r.Sets))
	for _, w := range workloads {
		sum, ok := r.Summary[w.name]
		if !ok {
			continue
		}
		fmt.Printf("\n  %s\n    %-26s %12s %8s %8s\n", w.name, "metric", "median", "iqr", "maxdev")
		for _, d := range endToEndDefs {
			if s, ok := sum[d.Name]; ok {
				fmt.Printf("    %-26s %12.4f %7.1f%% %7.1f%%\n", d.Name, s.Median, 100*s.iqrShare(), 100*s.maxDeviation())
			}
		}
	}
}

// calibrate rewrites BENCHMARK.json from measured sets. Each end-to-end
// metric's bound is the largest, over workloads, of twice the greatest
// deviation from the median and three times the quartile distance — never
// below minBound, never above maxBound. A timing metric whose quartile
// distance exceeds demoteSpread of its median on some workload is listed
// under per_layer, ungated, not kept with a wide bound; setup_s stays
// whatever it measures. The quartile distance is the spread the benchmark
// driver itself judges a metric by.
func calibrate(bf *benchFile, r *report) error {
	out := defaultBenchFile()
	out.RunSeconds = bf.RunSeconds
	out.EndToEnd = nil
	var demoted []metricDef
	fmt.Printf("\n== calibration from %d sets ==\n", len(r.Sets))
	for _, d := range endToEndDefs {
		if d.Name == "failed_share" {
			continue
		}
		var dev, iqr float64
		for _, sum := range r.Summary {
			if s, ok := sum[d.Name]; ok {
				dev = math.Max(dev, s.maxDeviation())
				iqr = math.Max(iqr, s.iqrShare())
			}
		}
		if d.timing && d.Name != "setup_s" && iqr > demoteSpread {
			fmt.Printf("  %-26s iqr %.1f%% > %.0f%%: demoted to per_layer\n", d.Name, 100*iqr, 100*demoteSpread)
			demoted = append(demoted, d)
			continue
		}
		bound := math.Max(math.Max(2*dev, 3*iqr), minBound)
		if bound > maxBound {
			fmt.Printf("  %-26s measured bound %.3f exceeds the %.2f cap\n", d.Name, bound, maxBound)
			bound = maxBound
		}
		bound = math.Ceil(bound*1000) / 1000
		fmt.Printf("  %-26s max deviation %.1f%%, iqr %.1f%% -> bound %.3f\n", d.Name, 100*dev, 100*iqr, bound)
		out.EndToEnd = append(out.EndToEnd, benchBounded{metricDef: d, Bound: bound})
	}
	out.PerLayer = append(demoted, out.PerLayer...)
	return out.save()
}

// checkAgreement compares two groups of sets of the same code: the even
// sets against the odd ones, so that drift over the minutes a check takes
// falls on both. For each workload, the median of each end-to-end metric in
// one group may differ from the other's by at most the metric's bound. The
// per-run counts must be the same in every set.
func checkAgreement(bf *benchFile, sets [][]*result) []string {
	var problems []string
	for i, first := range sets[0] {
		group := func(parity int, name string) float64 {
			var v []float64
			for k := parity; k < len(sets); k += 2 {
				v = append(v, sets[k][i].Values[name])
			}
			return median(v)
		}
		for _, m := range bf.EndToEnd {
			va, vb := group(0, m.Name), group(1, m.Name)
			if va == 0 {
				continue
			}
			if diff := math.Abs(vb-va) / va; diff > m.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: medians %.4f and %.4f differ by %.1f%%, bound %.1f%%",
					first.Workload, m.Name, va, vb, 100*diff, 100*m.Bound))
			}
		}
		for _, name := range []string{"persist.appends_per_run", "parsl.tasks_per_run"} {
			for _, set := range sets[1:] {
				if va, vb := first.Values[name], set[i].Values[name]; va != vb {
					problems = append(problems, fmt.Sprintf("%s %s: count %.4f vs %.4f does not repeat", first.Workload, name, va, vb))
					break
				}
			}
		}
	}
	return problems
}
