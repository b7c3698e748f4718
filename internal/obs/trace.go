package obs

import (
	"sync"
	"time"
)

// SpanKind classifies a span within the run→step→task hierarchy.
type SpanKind string

// The three levels of the span hierarchy: one run span per workflow run,
// one step span per workflow step, one task span per DFK task.
const (
	KindRun  SpanKind = "run"
	KindStep SpanKind = "step"
	KindTask SpanKind = "task"
)

// Span is one timed unit of work inside a trace. A trace groups every span
// for one workflow run; the span tree is Run → Step → Task. Durations for
// interesting sub-phases (queue wait, execution, remote round-trip) ride in
// Attrs rather than as child spans to keep the store small.
type Span struct {
	Trace  string            `json:"trace"`
	ID     string            `json:"id"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Kind   SpanKind          `json:"kind"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Duration returns End-Start, or 0 for an unfinished span.
func (s Span) Duration() time.Duration {
	if s.End.IsZero() || s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Tracer is a bounded in-memory span store. Traces are evicted LRU once
// maxTraces is exceeded, and each trace holds at most maxSpans spans (older
// spans are dropped first), so a long-lived server cannot grow without bound.
// An optional sink observes every emitted span synchronously — keep it fast.
type Tracer struct {
	mu        sync.Mutex
	traces    map[string]*traceLog
	order     traceLog // sentinel of the creation-order ring; order.next is the oldest
	maxTraces int
	maxSpans  int
	sink      func(Span)
}

// traceLog is one trace's spans, linked into the tracer's creation order so
// eviction and Forget unlink it in O(1).
type traceLog struct {
	id         string
	spans      []Span
	prev, next *traceLog
}

// NewTracer builds a tracer retaining up to maxTraces traces of up to
// maxSpans spans each. Non-positive arguments select generous defaults.
func NewTracer(maxTraces, maxSpans int) *Tracer {
	if maxTraces <= 0 {
		maxTraces = 256
	}
	if maxSpans <= 0 {
		maxSpans = 4096
	}
	t := &Tracer{
		traces:    make(map[string]*traceLog),
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
	}
	t.order.prev, t.order.next = &t.order, &t.order
	return t
}

// SetSink installs a callback invoked synchronously for every emitted span,
// e.g. to mirror spans into structured logs.
func (t *Tracer) SetSink(fn func(Span)) {
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// Emit records a finished (or still-open) span under its trace.
func (t *Tracer) Emit(s Span) {
	if s.Trace == "" {
		return
	}
	t.mu.Lock()
	tl := t.traces[s.Trace]
	if tl == nil {
		tl = &traceLog{id: s.Trace, prev: t.order.prev, next: &t.order}
		tl.prev.next, t.order.prev = tl, tl
		t.traces[s.Trace] = tl
		t.evictLocked()
	}
	tl.spans = append(tl.spans, s)
	if len(tl.spans) > t.maxSpans {
		// Drop the oldest spans in one copy; keeps amortized cost low.
		keep := t.maxSpans / 2
		tl.spans = append(tl.spans[:0], tl.spans[len(tl.spans)-keep:]...)
	}
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(s)
	}
}

// evictLocked drops the least recently created traces beyond maxTraces.
func (t *Tracer) evictLocked() {
	for len(t.traces) > t.maxTraces {
		t.removeLocked(t.order.next)
	}
}

// removeLocked unlinks tl and drops it from the index.
func (t *Tracer) removeLocked(tl *traceLog) {
	tl.prev.next, tl.next.prev = tl.next, tl.prev
	tl.prev, tl.next = nil, nil
	delete(t.traces, tl.id)
}

// SpansFor returns a copy of the spans recorded for the given trace, in
// emission order.
func (t *Tracer) SpansFor(trace string) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	tl := t.traces[trace]
	if tl == nil {
		return nil
	}
	out := make([]Span, len(tl.spans))
	copy(out, tl.spans)
	return out
}

// Forget drops all spans for a trace, e.g. when the run is evicted from the
// run store.
func (t *Tracer) Forget(trace string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tl := t.traces[trace]; tl != nil {
		t.removeLocked(tl)
	}
}

// Len reports how many traces are currently retained.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}
