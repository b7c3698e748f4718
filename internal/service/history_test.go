package service

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parsl"
)

// manualExec hands every launched task to the test, which completes or
// re-dispatches it by hand, so the DFK appends events in the test's order.
type manualExec struct{ launched chan manualTask }

type manualTask struct {
	task *parsl.Task
	done func(any, error)
}

func (m *manualExec) Label() string { return "manual" }
func (m *manualExec) Start() error  { return nil }
func (m *manualExec) Submit(t *parsl.Task, done func(any, error)) {
	m.launched <- manualTask{task: t, done: done}
}
func (m *manualExec) Outstanding() int { return 0 }
func (m *manualExec) Shutdown() error  { return nil }

type refLabelLog struct {
	events []parsl.TaskEvent
	seq    int64
}

// refHistory is the DFK's per-label event retention before it was compacted:
// a per-label index holding full TaskEvents, with the same truncation and
// label-eviction rules (copied from the old appendEventLocked and
// evictLabelsLocked). Events without a label are not retained.
type refHistory struct {
	limit, maxLabels int
	byLabel          map[string]*refLabelLog
	labelSeq         int64
	dropped          map[string]bool // labels forgotten or evicted at least once
	truncated        map[string]bool // labels whose log lost events to the limit
	evictions        int
}

func newRefHistory(limit, maxLabels int) *refHistory {
	return &refHistory{
		limit: limit, maxLabels: maxLabels,
		byLabel: map[string]*refLabelLog{}, dropped: map[string]bool{}, truncated: map[string]bool{},
	}
}

func (h *refHistory) append(ev parsl.TaskEvent) {
	if ev.Label == "" {
		return
	}
	h.labelSeq++
	ll := h.byLabel[ev.Label]
	if ll == nil {
		if len(h.byLabel) >= h.maxLabels {
			h.evictLabels()
		}
		ll = &refLabelLog{}
		h.byLabel[ev.Label] = ll
	}
	ll.seq = h.labelSeq
	ll.events = append(ll.events, ev)
	if len(ll.events) > 2*h.limit {
		ll.events = append([]parsl.TaskEvent{}, ll.events[len(ll.events)-h.limit:]...)
		h.truncated[ev.Label] = true
	}
}

func (h *refHistory) evictLabels() {
	batch := h.maxLabels / 16
	if batch < 1 {
		batch = 1
	}
	seqs := make([]int64, 0, len(h.byLabel))
	for _, e := range h.byLabel {
		seqs = append(seqs, e.seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if batch > len(seqs) {
		batch = len(seqs)
	}
	cutoff := seqs[batch-1]
	for l, e := range h.byLabel {
		if e.seq <= cutoff {
			delete(h.byLabel, l)
			h.dropped[l] = true
			h.evictions++
		}
	}
}

func (h *refHistory) forget(label string) {
	delete(h.byLabel, label)
	h.dropped[label] = true
}

func (h *refHistory) eventsFor(label string) []parsl.TaskEvent {
	if ll := h.byLabel[label]; ll != nil {
		return ll.events
	}
	return nil
}

// refTrack and refRecorder are the service's span recorder before spans were
// derived on read: it built each task span from the live event stream and
// kept it per run (the tracer's store, here a map).
type refTrack struct {
	start   time.Time
	app     string
	waitDur time.Duration
}

type refRecorder struct {
	tasks map[int]*refTrack
	spans map[string][]obs.Span
}

func newRefRecorder() *refRecorder {
	return &refRecorder{tasks: map[int]*refTrack{}, spans: map[string][]obs.Span{}}
}

func (sr *refRecorder) onEvent(ev parsl.TaskEvent) {
	if ev.Label == "" {
		return
	}
	switch ev.State {
	case parsl.StatePending:
		sr.tasks[ev.TaskID] = &refTrack{start: ev.Time, app: ev.App}
	case parsl.StateLaunched:
		if ev.WaitDur > 0 {
			if tr := sr.tasks[ev.TaskID]; tr != nil {
				tr.waitDur = ev.WaitDur
			}
		}
	case parsl.StateDone, parsl.StateFailed, parsl.StateDepFail, parsl.StateMemoHit:
		tr := sr.tasks[ev.TaskID]
		delete(sr.tasks, ev.TaskID)
		start := ev.Time
		wait := ev.WaitDur
		if tr != nil {
			start = tr.start
			if tr.waitDur > 0 {
				wait = tr.waitDur
			}
		}
		attrs := map[string]string{"state": ev.State.String()}
		if wait > 0 {
			attrs["waitSeconds"] = formatSeconds(wait)
		}
		if ev.ExecDur > 0 {
			attrs["execSeconds"] = formatSeconds(ev.ExecDur)
		}
		if ev.Tries > 0 {
			attrs["tries"] = fmt.Sprint(ev.Tries)
		}
		if ev.State == parsl.StateMemoHit {
			attrs["memo"] = "hit"
		}
		sr.spans[ev.Label] = append(sr.spans[ev.Label], obs.Span{
			Trace:  ev.Label,
			ID:     fmt.Sprintf("task-%d", ev.TaskID),
			Parent: "step-" + stepOf(ev.App),
			Name:   ev.App,
			Kind:   obs.KindTask,
			Start:  start,
			End:    ev.Time,
			Attrs:  attrs,
		})
	}
}

// wallEvents and wallSpans drop monotonic clock readings, which the
// reference's live events carry and retained events do not.
func wallEvents(evs []parsl.TaskEvent) []parsl.TaskEvent {
	out := make([]parsl.TaskEvent, len(evs))
	for i, ev := range evs {
		ev.Time = ev.Time.Round(0)
		out[i] = ev
	}
	return out
}

func wallSpans(sps []obs.Span) []obs.Span {
	out := make([]obs.Span, len(sps))
	for i, sp := range sps {
		sp.Start, sp.End = sp.Start.Round(0), sp.End.Round(0)
		out[i] = sp
	}
	return out
}

// historyCoverage counts the interleaving features one seed exercised.
type historyCoverage struct {
	redispatches, memoHits, depFails, forgets, evictions, truncations, unlabeled int
}

// TestTaskHistoryMatchesLabeledLogModel drives a DFK through seeded
// interleavings of submit (labeled and unlabeled), launch, redispatch,
// completion, memo hit, dependency failure and ForgetLabel under small
// MaxEvents and MaxLabels, and checks after every step that the compact
// one-log-per-label store reproduces the model: EventsFor equal per label;
// the index holding exactly the model's labels and events, unlabeled ones
// never; and the spans derived on read equal to what the old recorder kept,
// for every run the service could still serve.
func TestTaskHistoryMatchesLabeledLogModel(t *testing.T) {
	var total historyCoverage
	for seed := int64(1); seed <= 12; seed++ {
		c := checkHistoryAgainstModel(t, seed, 300)
		total.redispatches += c.redispatches
		total.memoHits += c.memoHits
		total.depFails += c.depFails
		total.forgets += c.forgets
		total.evictions += c.evictions
		total.truncations += c.truncations
		total.unlabeled += c.unlabeled
	}
	t.Logf("coverage: %+v", total)
	if total.redispatches == 0 || total.memoHits == 0 || total.depFails == 0 || total.forgets == 0 ||
		total.evictions == 0 || total.truncations == 0 || total.unlabeled == 0 {
		t.Fatalf("the interleavings missed a case: %+v", total)
	}
}

func checkHistoryAgainstModel(t *testing.T, seed int64, steps int) historyCoverage {
	const maxEvents, maxLabels = 6, 3
	ex := &manualExec{launched: make(chan manualTask)}
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{ex},
		Memoize:   true,
		MaxEvents: maxEvents,
		MaxLabels: maxLabels,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefHistory(maxEvents, maxLabels)
	rec := newRefRecorder()
	var mu sync.Mutex
	remove := dfk.OnTaskEvent(func(ev parsl.TaskEvent) {
		mu.Lock()
		defer mu.Unlock()
		ref.append(ev)
		rec.onEvent(ev)
	})

	rng := rand.New(rand.NewSource(seed))
	labels := []string{"", "run-a", "run-b", "run-c", "run-d", "run-e"}
	apps := map[string]*parsl.GoApp{}
	for _, name := range []string{"step:greet", "step:relay", "cwl-tool"} {
		apps[name] = parsl.NewGoApp(name, func(parsl.Args) (any, error) { return nil, nil })
	}
	appNames := []string{"step:greet", "step:relay", "cwl-tool"}
	type memoKey struct {
		app string
		k   int
	}
	type running struct {
		manualTask
		key memoKey
		fut *parsl.AppFuture
	}
	var (
		live      []running
		failed    []*parsl.AppFuture
		inFlight  = map[memoKey]bool{}
		succeeded []memoKey
		memoized  = map[memoKey]bool{}
		cov       historyCoverage
	)
	waitDone := func(fut *parsl.AppFuture) {
		select {
		case <-fut.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: task %d never finished", seed, fut.TaskID())
		}
	}
	awaitLaunch := func() manualTask {
		select {
		case mt := <-ex.launched:
			return mt
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: submitted task never launched", seed)
			return manualTask{}
		}
	}
	complete := func(i int, fail bool) {
		r := live[i]
		live = append(live[:i], live[i+1:]...)
		delete(inFlight, r.key)
		if fail {
			r.done(nil, errors.New("boom"))
			failed = append(failed, r.fut)
		} else {
			r.done(r.task.ID, nil)
			if r.key.app != "" {
				succeeded = append(succeeded, r.key)
				memoized[r.key] = true
			}
		}
	}

	for step := 0; step < steps; step++ {
		label := labels[rng.Intn(len(labels))]
		app := appNames[rng.Intn(len(appNames))]
		var op string
		switch n := rng.Intn(100); {
		case n < 35 || len(live) == 0:
			op = "submit"
			args, opts := parsl.Args{}, parsl.CallOpts{Label: label, NoMemo: true}
			key := memoKey{app: app, k: rng.Intn(3)}
			// A memoizable submission must own its key: a key in flight
			// would wait for its owner, a memoized one would not launch.
			if rng.Intn(3) == 0 && !inFlight[key] && !memoized[key] {
				args, opts.NoMemo = parsl.Args{"k": key.k}, false
				inFlight[key] = true
			} else {
				key = memoKey{}
			}
			fut := dfk.Submit(apps[app], args, opts)
			live = append(live, running{manualTask: awaitLaunch(), key: key, fut: fut})
			if label == "" {
				cov.unlabeled++
			}
		case n < 55:
			op = "complete"
			complete(rng.Intn(len(live)), rng.Intn(10) < 3)
		case n < 65:
			op = "redispatch"
			live[rng.Intn(len(live))].task.Retried(errors.New("worker lost"))
			cov.redispatches++
		case n < 73 && len(succeeded) > 0:
			op = "memo hit"
			key := succeeded[rng.Intn(len(succeeded))]
			waitDone(dfk.Submit(apps[key.app], parsl.Args{"k": key.k}, parsl.CallOpts{Label: label}))
			cov.memoHits++
		case n < 83 && len(failed) > 0:
			op = "dep fail"
			dep := failed[rng.Intn(len(failed))]
			waitDone(dfk.Submit(apps[app], parsl.Args{"dep": dep}, parsl.CallOpts{Label: label, NoMemo: true}))
			cov.depFails++
		case n < 90 && label != "":
			op = "forget " + label
			dfk.ForgetLabel(label)
			mu.Lock()
			ref.forget(label)
			mu.Unlock()
			cov.forgets++
		default:
			continue
		}
		mu.Lock()
		checkHistoryStep(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, op), dfk, ref, rec, labels)
		mu.Unlock()
		if t.Failed() {
			break
		}
	}
	for len(live) > 0 {
		complete(0, false)
	}
	remove()
	if err := dfk.Cleanup(); err != nil {
		t.Fatal(err)
	}
	cov.evictions = ref.evictions
	cov.truncations = len(ref.truncated)
	return cov
}

func checkHistoryStep(t *testing.T, where string, dfk *parsl.DFK, ref *refHistory, rec *refRecorder, labels []string) {
	t.Helper()
	for _, l := range labels[1:] {
		got, want := wallEvents(dfk.EventsFor(l)), wallEvents(ref.eventsFor(l))
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: EventsFor(%q)\n got %+v\nwant %+v", where, l, got, want)
			return
		}
	}

	st, events := dfk.IndexStats(), 0
	for _, ll := range ref.byLabel {
		events += len(ll.events)
	}
	if st.Labels != len(ref.byLabel) || st.LabelEvents != events {
		t.Errorf("%s: index holds %d labels and %d events, model %d and %d", where, st.Labels, st.LabelEvents, len(ref.byLabel), events)
		return
	}

	// Spans, for every run the service could still serve: one whose history
	// was never dropped. Where the limit truncated a run's log, the old
	// recorder had seen events the log no longer holds, so the model is the
	// old recorder replaying the retained events.
	for _, l := range labels[1:] {
		if ref.dropped[l] {
			continue
		}
		want := rec.spans[l]
		if ref.truncated[l] {
			replay := newRefRecorder()
			for _, ev := range ref.eventsFor(l) {
				replay.onEvent(ev)
			}
			want = replay.spans[l]
		}
		var got []obs.Span
		for _, sp := range runSpans(RunSnapshot{ID: l}, dfk.EventsFor(l)) {
			if sp.Kind == obs.KindTask {
				got = append(got, sp)
			}
		}
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(wallSpans(got), wallSpans(want)) {
			t.Errorf("%s: spans of %q\n got %+v\nwant %+v", where, l, got, want)
			return
		}
	}
}
