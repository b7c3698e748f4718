package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of one run. Spans of a run share Trace (the run
// ID) and name the span that caused them in Parent. The harness records the
// client spans around its own HTTP calls; the run → step → task spans are the
// ones serve already keeps and returns from GET /runs/{id}/events.
type span struct {
	Trace  string    `json:"trace"`
	ID     string    `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Span IDs of the client side. Serve's own root span has ID "run".
const (
	spanClient = "client" // POST sent → terminal state seen; root
	spanPost   = "post"
	spanWait   = "wait"
	spanEvents = "events" // the GET that fetches serve's spans; outside spanClient
	spanServer = "run"
)

// tracer keeps spans in memory: one traced pass's worth, or with keep set
// (-trace-out) all of them until the harness exits.
type tracer struct {
	keep  bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(spans ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other and
// may stick out of the parent; only the covered part of the parent counts.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			from, to := k.Start, k.End
			if from.Before(edge) {
				from = edge
			}
			if to.After(s.End) {
				to = s.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				edge = to
			}
		}
		out[s.ID] = s.End.Sub(s.Start) - covered
	}
	return out
}

// selfTimeMedians groups one phase's spans by trace, computes self times and
// reports the median self time in milliseconds per span name (task and step
// spans share the name of their kind, so a 32-wide scatter is one row).
func selfTimeMedians(spans []span) map[string]float64 {
	byTrace := map[string][]span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	perName := map[string][]float64{}
	for _, group := range byTrace {
		self := selfTimes(group)
		sums := map[string]float64{}
		for _, s := range group {
			sums[s.Kind+":"+rowName(s)] += float64(self[s.ID]) / float64(time.Millisecond)
		}
		for name, ms := range sums {
			perName[name] = append(perName[name], ms)
		}
	}
	out := make(map[string]float64, len(perName))
	for name, v := range perName {
		out[name] = median(v)
	}
	return out
}

func rowName(s span) string {
	if s.Kind == "client" {
		return s.ID
	}
	return "all"
}
