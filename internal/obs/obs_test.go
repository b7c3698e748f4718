package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-2) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter value = %d, want 5", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatal("re-registration should return the same counter")
	}

	v := r.CounterVec("test_labeled_total", "labeled", "kind")
	v.With("a").Add(2)
	v.With("b").Inc()
	v.With("a").Inc()
	fams := r.Gather()
	if got, ok := Value(fams, "test_labeled_total", Label{"kind", "a"}); !ok || got != 3 {
		t.Fatalf("labeled a = %v (ok=%v), want 3", got, ok)
	}
	if got, ok := Value(fams, "test_labeled_total", Label{"kind", "b"}); !ok || got != 1 {
		t.Fatalf("labeled b = %v (ok=%v), want 1", got, ok)
	}
	if _, ok := Value(fams, "test_labeled_total", Label{"kind", "c"}); ok {
		t.Fatal("absent series should not be found")
	}
	if n := len(Samples(fams, "test_labeled_total")); n != 2 {
		t.Fatalf("samples = %d, want 2", n)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-3.5)
	if got := g.Value(); got != 6.5 {
		t.Fatalf("gauge = %v, want 6.5", got)
	}
	r.GaugeVec("test_gauge_vec", "labeled gauge", "x").With("y").Set(2)
	r.GaugeFunc("test_gauge_fn", "func gauge", func() float64 { return 42 })
	fams := r.Gather()
	if got, _ := Value(fams, "test_gauge_vec", Label{"x", "y"}); got != 2 {
		t.Fatalf("gauge vec = %v, want 2", got)
	}
	if got, _ := Value(fams, "test_gauge_fn"); got != 42 {
		t.Fatalf("gauge fn = %v, want 42", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	fams := r.Gather()
	var hs *HistogramSample
	for _, f := range fams {
		if f.Name == "test_seconds" {
			hs = &f.Hist[0]
		}
	}
	if hs == nil {
		t.Fatal("histogram family not gathered")
	}
	if hs.Count != 5 {
		t.Fatalf("count = %d, want 5", hs.Count)
	}
	if hs.Sum != 56.05 {
		t.Fatalf("sum = %v, want 56.05", hs.Sum)
	}
	wantCum := []uint64{1, 3, 4}
	for i, w := range wantCum {
		if hs.Counts[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, hs.Counts[i], w)
		}
	}

	hv := r.HistogramVec("test_vec_seconds", "labeled histogram", nil, "op")
	hv.With("read").Observe(0.002)
	fams = r.Gather()
	for _, f := range fams {
		if f.Name == "test_vec_seconds" {
			if len(f.Hist) != 1 || f.Hist[0].Count != 1 {
				t.Fatalf("vec histogram not recorded: %+v", f.Hist)
			}
			if !equalFloats(f.Hist[0].Bounds, DefBuckets) {
				t.Fatal("nil bounds should select DefBuckets")
			}
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if !equalFloats(b, want) {
		t.Fatalf("ExpBuckets = %v, want %v", b, want)
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	expectPanic("invalid metric name", func() { r.Counter("9bad", "x") })
	expectPanic("invalid label name", func() { r.CounterVec("ok_total", "x", "le") })
	r.Counter("shape_total", "x")
	expectPanic("shape change", func() { r.Gauge("shape_total", "x") })
	expectPanic("descending bounds", func() { r.Histogram("desc_seconds", "x", []float64{2, 1}) })
	v := r.CounterVec("arity_total", "x", "a", "b")
	expectPanic("label arity", func() { v.With("only-one") })
}

func TestCollectorAndMerge(t *testing.T) {
	r := NewRegistry()
	r.Counter("merge_total", "from instrument").Inc()
	r.Collect(func() []Family {
		return []Family{
			{Name: "merge_total", Type: TypeCounter, Samples: []Sample{{Labels: []Label{{"src", "collector"}}, Value: 7}}},
			{Name: "alone_gauge", Help: "collector-only", Type: TypeGauge, Samples: []Sample{{Value: 1}}},
		}
	})
	fams := r.Gather()
	if got, _ := Value(fams, "merge_total"); got != 1 {
		t.Fatalf("instrument sample = %v, want 1", got)
	}
	if got, _ := Value(fams, "merge_total", Label{"src", "collector"}); got != 7 {
		t.Fatalf("collector sample = %v, want 7", got)
	}
	// Gather output must be sorted by name.
	for i := 1; i < len(fams); i++ {
		if fams[i].Name < fams[i-1].Name {
			t.Fatalf("families not sorted: %q after %q", fams[i].Name, fams[i-1].Name)
		}
	}
}

// TestExpositionRoundTrip renders a registry with every instrument kind and
// feeds it back through the strict parser — the same check CI runs against
// the live /metrics endpoint.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", "counter help with \\ and\nnewline").Add(3)
	r.CounterVec("rt_labeled_total", "labeled", "name").With("weird\"va\\lue\nx").Inc()
	r.Gauge("rt_gauge", "gauge").Set(2.5)
	r.Histogram("rt_seconds", "histogram", []float64{0.1, 1}).Observe(0.5)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type = %q, want %q", ct, ContentType)
	}
	fams, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition failed strict parse: %v", err)
	}
	if fams["rt_total"].Series[0].Value != 3 {
		t.Fatalf("rt_total = %v, want 3", fams["rt_total"].Series[0].Value)
	}
	got := fams["rt_labeled_total"].Series[0].Labels[0]
	if got.Value != "weird\"va\\lue\nx" {
		t.Fatalf("label value did not round-trip: %q", got.Value)
	}
	h := fams["rt_seconds"]
	if h.Type != "histogram" || len(h.Series) != 4 { // 2 bounds + Inf bucket + sum + count = 5? bounds(2)+inf(1)+sum+count
		if len(h.Series) != 5 {
			t.Fatalf("histogram series = %d, want 5", len(h.Series))
		}
	}
}

func TestWritePrometheusFloats(t *testing.T) {
	var sb strings.Builder
	err := WritePrometheus(&sb, []Family{{
		Name: "f_gauge", Type: TypeGauge,
		Samples: []Sample{
			{Value: math.Inf(1)},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "f_gauge +Inf") {
		t.Fatalf("infinity not rendered: %q", sb.String())
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":   "loose_total 1\n",
		"duplicate family":     "# TYPE a counter\n# TYPE a counter\n",
		"duplicate series":     "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n",
		"negative counter":     "# TYPE a counter\na -1\n",
		"bad type":             "# TYPE a enum\n",
		"bad metric name":      "# TYPE 9a counter\n",
		"bare histogram":       "# TYPE h histogram\nh 1\n",
		"missing Inf bucket":   "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-cumulative":       "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"count mismatch":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"repeated label":       "# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n",
		"unquoted label":       "# TYPE a counter\na{x=1} 1\n",
		"unterminated value":   "# TYPE a counter\na{x=\"1} 1\n",
		"bad escape":           "# TYPE a counter\na{x=\"\\t\"} 1\n",
		"garbage value":        "# TYPE a counter\na one\n",
		"suffix on counter":    "# TYPE a counter\na_bucket{le=\"1\"} 1\n",
		"unexpected comment":   "# EOF\n",
		"malformed TYPE":       "# TYPE onlyname\n",
		"count without bucket": "# TYPE h histogram\nh_count 1\n",
	}
	for name, input := range cases {
		if _, err := ParseExposition(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
	// And one valid gauge document with special values parses fine.
	ok := "# HELP g help\n# TYPE g gauge\ng{x=\"a\"} NaN\ng{x=\"b\"} -Inf\ng 1e9\n"
	if _, err := ParseExposition(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestSpanDuration(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	if d := (Span{Start: base, End: base.Add(time.Second)}).Duration(); d != time.Second {
		t.Fatalf("duration = %v, want 1s", d)
	}
	if d := (Span{Start: base}).Duration(); d != 0 {
		t.Fatalf("open span duration = %v, want 0", d)
	}
	if d := (Span{Start: base, End: base.Add(-time.Second)}).Duration(); d != 0 {
		t.Fatalf("inverted span duration = %v, want 0", d)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "x")
	g := r.Gauge("conc_gauge", "x")
	h := r.Histogram("conc_seconds", "x", nil)
	v := r.CounterVec("conc_vec_total", "x", "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.01)
				v.With("a").Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // gather concurrently with writes
		for {
			select {
			case <-done:
				return
			default:
				r.Gather()
			}
		}
	}()
	wg.Wait()
	close(done)
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	fams := r.Gather()
	if got, _ := Value(fams, "conc_vec_total", Label{"w", "a"}); got != 8000 {
		t.Fatalf("vec = %v, want 8000", got)
	}
}

func TestTypeString(t *testing.T) {
	if TypeCounter.String() != "counter" || TypeGauge.String() != "gauge" || TypeHistogram.String() != "histogram" {
		t.Fatal("Type.String mismatch")
	}
	if Type(99).String() != "Type(99)" {
		t.Fatal("unknown type string")
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() == nil || Default() != Default() {
		t.Fatal("Default registry must be a stable singleton")
	}
}
