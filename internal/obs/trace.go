package obs

import "time"

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
// Attrs rather than as child spans to keep the tree small.
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
