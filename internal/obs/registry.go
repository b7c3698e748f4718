// Package obs is the engine's observability substrate: a dependency-free
// metrics registry with atomic hot paths, Prometheus text-format exposition,
// a strict exposition parser (CI lints /metrics output with it), and the
// span type of the run→step→task timing tree.
//
// Two registries matter in practice:
//
//   - the package Default registry holds process-wide instruments created by
//     the engine layers (DFK task counters, provider frame counters, WAL
//     append counters, expression-cache counters). These are package-level
//     vars: cheap atomic counters that aggregate across every DFK/provider
//     instance in the process, exactly like Prometheus client counters.
//   - per-component registries (e.g. one per service.Service) hold gauges
//     and collectors whose lifetime is tied to that component. Handler
//     merges any number of registries into one /metrics page.
//
// Instruments are created through the registry (Counter, Gauge, Histogram
// and their label-vector variants); creation is idempotent per name so
// package-level construction can never double-register. Collectors produce
// families at gather time for values that live elsewhere (executor stats,
// WAL stats, cache stats) — the same numbers /healthz reports, read from the
// same source at the same call, so the two surfaces cannot drift.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Type classifies a metric family for exposition.
type Type int

const (
	// TypeCounter is a monotonically increasing value.
	TypeCounter Type = iota
	// TypeGauge is a value that can go up and down.
	TypeGauge
	// TypeHistogram is a bucketed distribution with sum and count.
	TypeHistogram
)

// String renders the TYPE token used in the exposition format.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one series' current value within a family.
type Sample struct {
	Labels []Label
	Value  float64
}

// HistogramSample is one series' current distribution within a histogram
// family. Counts are cumulative per upper bound, Prometheus-style; the
// implicit +Inf bucket equals Count.
type HistogramSample struct {
	Labels []Label
	// Bounds are the bucket upper bounds, ascending, excluding +Inf.
	Bounds []float64
	// Counts[i] is the cumulative observation count for Bounds[i].
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Family is a named metric family with its current samples.
type Family struct {
	Name string
	Help string
	Type Type
	// Samples holds counter/gauge series; Hist holds histogram series.
	Samples []Sample
	Hist    []HistogramSample
}

// CollectorFunc produces metric families at gather time, for values owned by
// another component (executor stats, WAL stats). It must be fast and must not
// call back into the registry it is registered on.
type CollectorFunc func() []Family

// Registry holds instruments and collectors and gathers them into families.
type Registry struct {
	mu         sync.Mutex
	order      []string
	families   map[string]*instrumentFamily
	collectors []CollectorFunc
}

// instrumentFamily is one registered instrument family (fixed label names,
// samples keyed by label values).
type instrumentFamily struct {
	name       string
	help       string
	typ        Type
	labelNames []string
	bounds     []float64 // histogram families only

	mu     sync.Mutex
	order  []string
	series map[string]any // *Counter, *Gauge, *Histogram, or gaugeFn keyed by label signature
	labels map[string][]string
}

type gaugeFn func() float64

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*instrumentFamily{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry holding the engine layers'
// package-level instruments.
func Default() *Registry { return defaultRegistry }

// family returns the named instrument family, creating it on first use.
// Re-registration with a different type, label set, or bucket layout panics:
// that is always a programming error, caught at init time because instruments
// are package-level vars.
func (r *Registry) family(name, help string, typ Type, labelNames []string, bounds []float64) *instrumentFamily {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) || strings.HasPrefix(l, "__") || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labelNames, labelNames) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &instrumentFamily{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: labelNames,
		bounds:     bounds,
		series:     map[string]any{},
		labels:     map[string][]string{},
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// series returns the instrument stored for one label-value signature,
// creating it with make on first use.
func (f *instrumentFamily) at(values []string, make func() any) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	f.series[key] = s
	f.labels[key] = append([]string{}, values...)
	f.order = append(f.order, key)
	return s
}

// --- Counter ---

// Counter is a monotonically increasing value with an atomic hot path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; negative deltas are ignored to keep the
// counter monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns the registry's counter with the given name, creating and
// registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, TypeCounter, nil, nil)
	return f.at(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	f *instrumentFamily
}

// CounterVec returns the registry's labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, TypeCounter, labelNames, nil)}
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.at(values, func() any { return &Counter{} }).(*Counter)
}

// --- Gauge ---

// Gauge is a settable value. It stores float64 bits atomically so Set/Add
// stay lock-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns the registry's gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, TypeGauge, nil, nil)
	return f.at(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	f *instrumentFamily
}

// GaugeVec returns the registry's labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, TypeGauge, labelNames, nil)}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.at(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read by fn at gather time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, TypeGauge, nil, nil)
	f.at(nil, func() any { return gaugeFn(fn) })
}

// --- Histogram ---

// DefBuckets are the default histogram bounds (seconds), matching the
// Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns n exponential bucket bounds starting at start and
// multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram is a fixed-bucket distribution with atomic observation counts.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one value (seconds, bytes — whatever the family measures).
func (h *Histogram) Observe(v float64) {
	// Linear scan beats binary search at these sizes and keeps the hot path
	// branch-predictable: most observations land in the first few buckets.
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot renders the cumulative bucket view.
func (h *Histogram) snapshot(labels []Label) HistogramSample {
	out := HistogramSample{
		Labels: labels,
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)),
		Count:  uint64(h.count.Load()),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	var cum uint64
	for i := range h.counts {
		cum += uint64(h.counts[i].Load())
		out.Counts[i] = cum
	}
	return out
}

// Histogram returns the registry's histogram with the given name. bounds nil
// selects DefBuckets; bounds must be ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	bounds = checkBounds(name, bounds)
	f := r.family(name, help, TypeHistogram, nil, bounds)
	return f.at(nil, func() any { return newHistogram(bounds) }).(*Histogram)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	f *instrumentFamily
}

// HistogramVec returns the registry's labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	bounds = checkBounds(name, bounds)
	return &HistogramVec{f: r.family(name, help, TypeHistogram, labelNames, bounds)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram {
	bounds := v.f.bounds
	return v.f.at(values, func() any { return newHistogram(bounds) }).(*Histogram)
}

func checkBounds(name string, bounds []float64) []float64 {
	if bounds == nil {
		return DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds are not ascending", name))
		}
	}
	return bounds
}

// --- Collectors and gathering ---

// Collect registers fn to contribute families at gather time.
func (r *Registry) Collect(fn CollectorFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Gather snapshots every instrument and collector into families sorted by
// name. Families with the same name (e.g. an instrument plus a collector
// contribution) are merged; the first help/type wins.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	names := append([]string{}, r.order...)
	fams := make([]*instrumentFamily, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	collectors := append([]CollectorFunc{}, r.collectors...)
	r.mu.Unlock()

	var out []Family
	for _, f := range fams {
		out = append(out, f.gather())
	}
	for _, c := range collectors {
		out = append(out, c()...)
	}
	return MergeFamilies(out)
}

func (f *instrumentFamily) gather() Family {
	f.mu.Lock()
	defer f.mu.Unlock()
	fam := Family{Name: f.name, Help: f.help, Type: f.typ}
	for _, key := range f.order {
		labels := zipLabels(f.labelNames, f.labels[key])
		switch s := f.series[key].(type) {
		case *Counter:
			fam.Samples = append(fam.Samples, Sample{Labels: labels, Value: float64(s.Value())})
		case *Gauge:
			fam.Samples = append(fam.Samples, Sample{Labels: labels, Value: s.Value()})
		case gaugeFn:
			fam.Samples = append(fam.Samples, Sample{Labels: labels, Value: s()})
		case *Histogram:
			fam.Hist = append(fam.Hist, s.snapshot(labels))
		}
	}
	return fam
}

func zipLabels(names, values []string) []Label {
	if len(names) == 0 {
		return nil
	}
	out := make([]Label, len(names))
	for i := range names {
		out[i] = Label{Name: names[i], Value: values[i]}
	}
	return out
}

// MergeFamilies combines families with the same name (keeping the first
// help/type) and sorts the result by name. Sample order within a family is
// preserved.
func MergeFamilies(fams []Family) []Family {
	byName := map[string]*Family{}
	var order []string
	for _, f := range fams {
		if ex, ok := byName[f.Name]; ok {
			ex.Samples = append(ex.Samples, f.Samples...)
			ex.Hist = append(ex.Hist, f.Hist...)
			continue
		}
		cp := f
		byName[f.Name] = &cp
		order = append(order, f.Name)
	}
	sort.Strings(order)
	out := make([]Family, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// Value finds one series' value in gathered families; labels must match
// exactly (order-insensitive). It reports false when the series is absent.
func Value(fams []Family, name string, labels ...Label) (float64, bool) {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if labelsMatch(s.Labels, labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// Samples returns every sample of the named family in gathered families.
func Samples(fams []Family, name string) []Sample {
	for _, f := range fams {
		if f.Name == name {
			return f.Samples
		}
	}
	return nil
}

func labelsMatch(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for _, la := range a {
		found := false
		for _, lb := range b {
			if la == lb {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
