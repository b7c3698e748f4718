package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSlicedQuantileNeedsMinSamples(t *testing.T) {
	if _, err := slicedQuantile(make([]float64, minSamples-1), 0.95); err == nil {
		t.Errorf("%d samples gave a percentile; want an error", minSamples-1)
	}
	if _, err := slicedQuantile(make([]float64, minSamples), 0.95); err != nil {
		t.Errorf("%d samples: %v", minSamples, err)
	}
}

func TestSlicedQuantile(t *testing.T) {
	// One slice: the plain interpolated quantile.
	one := make([]float64, 300)
	for i := range one {
		one[i] = float64(i)
	}
	if got, _ := slicedQuantile(one, 0.5); got != 149.5 {
		t.Errorf("median of 0..299 = %v, want 149.5", got)
	}
	// Five slices of flat 1 ms latencies; a stall makes one whole slice
	// slow. The median over slices does not move, the whole-window p95 does.
	vals := make([]float64, 5*sliceSamples)
	for i := range vals {
		vals[i] = 1
	}
	for i := 2 * sliceSamples; i < 3*sliceSamples; i++ {
		vals[i] = 50
	}
	if got, _ := slicedQuantile(vals, 0.95); got != 1 {
		t.Errorf("sliced p95 with one stalled slice = %v, want 1", got)
	}
	if whole := quantile(sortedCopy(vals), 0.95); whole != 50 {
		t.Errorf("whole-window p95 = %v, want 50", whole)
	}
	// The remainder joins the last slice instead of forming a thin one.
	if got, _ := slicedQuantile(append(vals, 9, 9, 9), 0.5); got != 1 {
		t.Errorf("median with a 3-sample remainder = %v, want 1", got)
	}
}

func TestSummary(t *testing.T) {
	s := summarize([]float64{10, 12, 11, 9, 8})
	// statistics.quantiles([10, 12, 11, 9, 8], n=4) == [8.5, 10.0, 11.5]
	if s.Median != 10 || s.Q1 != 8.5 || s.Q3 != 11.5 || s.Min != 8 || s.Max != 12 {
		t.Fatalf("summary = %+v", s)
	}
	if got := s.iqrShare(); got != 0.3 {
		t.Errorf("iqrShare = %v, want 0.3", got)
	}
	if got := s.maxDeviation(); got != 0.2 {
		t.Errorf("maxDeviation = %v, want 0.2", got)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func openWorkload(t *testing.T) workload {
	t.Helper()
	w, ok := findWorkload("mixed_open")
	if !ok {
		t.Fatal("no mixed_open workload")
	}
	return w
}

func TestScheduleIsSeeded(t *testing.T) {
	w := openWorkload(t)
	mk := func(seed int64) []arrival {
		e := &env{seed: seed}
		e.hot = hotRequests(newRand(seed))
		return schedule(e, w, seed, openRate, 2*time.Second)
	}
	a, b, c := mk(7), mk(7), mk(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if len(a) < openRate || len(a) > 3*openRate {
		t.Errorf("%d arrivals in 2s at %d/s", len(a), openRate)
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i].due == c[i].due && reflect.DeepEqual(a[i].req, c[i].req)
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	hot, last := 0, time.Duration(0)
	for _, x := range a {
		if x.due < last {
			t.Fatalf("due times go backwards: %v after %v", x.due, last)
		}
		last = x.due
		if x.req.hot >= 0 {
			hot++
		}
		if x.req.tenant < 0 || x.req.tenant >= tenantsN {
			t.Fatalf("arrival without a tenant: %+v", x.req)
		}
	}
	if want := len(a) - len(a)/coldEvery; hot != want {
		t.Errorf("%d of %d arrivals repeat a pair, want exactly %d", hot, len(a), want)
	}
}

func TestUniqueRequestsDiffer(t *testing.T) {
	w := openWorkload(t)
	e := &env{seed: 1}
	e.hot = hotRequests(newRand(1))
	rng := newRand(2)
	docs, msgs := map[string]bool{}, map[string]bool{}
	for i := 0; i < 500; i++ {
		req := w.gen(e, rng, 0, i)
		if docs[req.doc] || msgs[req.want[0]] {
			t.Fatalf("request %d repeats a document or a message", i)
		}
		docs[req.doc], msgs[req.want[0]] = true, true
	}
}

const exposition = `# HELP pcwl_wal_appends_total Records appended.
# TYPE pcwl_wal_appends_total counter
pcwl_wal_appends_total %d
# HELP pcwl_service_shed_total Shed.
# TYPE pcwl_service_shed_total counter
pcwl_service_shed_total{reason="queue_full"} %d
pcwl_service_shed_total{reason="inflight_cap"} 1
# HELP pcwl_dfk_task_wait_seconds Wait.
# TYPE pcwl_dfk_task_wait_seconds histogram
pcwl_dfk_task_wait_seconds_bucket{le="0.001"} %d
pcwl_dfk_task_wait_seconds_bucket{le="+Inf"} %d
pcwl_dfk_task_wait_seconds_sum %g
pcwl_dfk_task_wait_seconds_count %d
`

func TestScrapeDelta(t *testing.T) {
	page := func(appends, shed, fast, n int, sum float64) []byte {
		return []byte(fmt.Sprintf(exposition, appends, shed, fast, n, sum, n))
	}
	before, err := parseScrape(page(8, 0, 2, 2, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(page(48, 3, 10, 12, 0.006))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if d["pcwl_wal_appends_total"] != 40 {
		t.Errorf("appends delta = %v, want 40", d["pcwl_wal_appends_total"])
	}
	// Label sets sum under the series name.
	if after["pcwl_service_shed_total"] != 4 || d["pcwl_service_shed_total"] != 3 {
		t.Errorf("shed total %v delta %v, want 4 and 3", after["pcwl_service_shed_total"], d["pcwl_service_shed_total"])
	}
	// Buckets are dropped; _sum and _count give the mean over the interval.
	if _, ok := after["pcwl_dfk_task_wait_seconds_bucket"]; ok {
		t.Error("histogram buckets were kept")
	}
	mean := ratio(d["pcwl_dfk_task_wait_seconds_sum"], d["pcwl_dfk_task_wait_seconds_count"])
	if math.Abs(mean-0.0005) > 1e-12 {
		t.Errorf("mean wait over the interval = %v, want 0.0005", mean)
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio with a zero denominator must be 0")
	}
	if _, err := parseScrape([]byte("pcwl_untyped 1\n")); err == nil {
		t.Error("a sample without a TYPE line parsed; the strict parser must reject it")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: "client", Start: at(0), End: at(100)},
		{ID: "post", Parent: "client", Start: at(0), End: at(10)},
		// wait and run overlap each other; run sticks out past the parent.
		{ID: "wait", Parent: "client", Start: at(10), End: at(95)},
		{ID: "run", Parent: "client", Start: at(5), End: at(120)},
		{ID: "step", Parent: "run", Start: at(20), End: at(60)},
		{ID: "task-1", Parent: "step", Start: at(20), End: at(50)},
		{ID: "task-2", Parent: "step", Start: at(30), End: at(60)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"client": 0,                     // children cover 0..100
		"post":   10 * time.Millisecond, // no children
		"wait":   85 * time.Millisecond,
		"run":    75 * time.Millisecond, // 115 − step's 40
		"step":   0,                     // tasks cover 20..60 between them
		"task-1": 30 * time.Millisecond,
		"task-2": 30 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v\nwant %v", got, want)
	}
}

// TestBenchFileFollowsCatalogue keeps BENCHMARK.json, the metric tables and
// the workload table naming the same things.
func TestBenchFileFollowsCatalogue(t *testing.T) {
	data, err := os.ReadFile("../" + benchFileName)
	if err != nil {
		t.Skipf("no %s yet: %v", benchFileName, err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in the file, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
	}
	listed := map[string]bool{}
	for _, m := range bf.EndToEnd {
		listed[m.Name] = true
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
	}
	if !listed["setup_s"] {
		t.Error("setup_s must be an end_to_end metric")
	}
	for _, w := range bf.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	for _, m := range bf.PerLayer {
		if listed[m.Name] {
			t.Errorf("%s is listed twice", m.Name)
		}
		listed[m.Name] = true
	}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if !listed[d.Name] {
				t.Errorf("%s is reported but not listed in %s", d.Name, benchFileName)
			}
			delete(listed, d.Name)
		}
	}
	for name := range listed {
		t.Errorf("%s is listed in %s but never reported", name, benchFileName)
	}
}

// TestSmoke runs two workloads end to end against live serve processes: one
// closed loop, one open loop, every phase.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs live serve processes")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the harness runs from the repository root
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	out := t.TempDir()
	// 2s, not 1s: at 200 arrivals/s a 1s window holds about 200 runs, and
	// fewer than minSamples fails the run by design.
	o := options{workloads: "expr_mem,mixed_open", seed: 1, duration: 2 * time.Second, coldStarts: 1, repeat: 1,
		out: out + "/bench.json", traceOut: out + "/spans.jsonl"}
	sets, err := execute(context.Background(), o, defaultBenchFile())
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0]) != 2 {
		t.Fatalf("got %d sets", len(sets))
	}
	for _, res := range sets[0] {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d runs failed: %s", res.Workload, res.Failed, res.Attempted, res.FirstErr)
		}
		for _, d := range endToEndDefs {
			if v, ok := res.Values[d.Name]; !ok || (v <= 0 && d.Name != "failed_share") {
				t.Errorf("%s: %s = %v (reported: %v)", res.Workload, d.Name, v, ok)
			}
		}
		w, _ := findWorkload(res.Workload)
		for _, name := range append([]string{"service.http_overhead_ms", "service.queue_wait_ms", "budget.unattributed_pct", "obs.events_get_ms"}, w.probes...) {
			if _, ok := res.Values[name]; !ok {
				t.Errorf("%s: %s was not reported", res.Workload, name)
			}
		}
		if len(res.Budget) == 0 {
			t.Errorf("%s: no budget table", res.Workload)
		}
	}
	open := sets[0][1].Values
	if r := open["service.resultcache_hit_ratio"]; math.Abs(r-0.8) > 0.01 {
		t.Errorf("mixed_open result-cache hit ratio = %v, want 0.8", r)
	}
	for _, path := range []string{o.out, o.traceOut} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s was not written: %v", path, err)
		}
	}
}
