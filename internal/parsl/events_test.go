package parsl

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestEventLogTruncation(t *testing.T) {
	dfk, err := Load(Config{
		Executors: []Executor{NewThreadPoolExecutor("threads", 2)},
		MaxEvents: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	app := NewGoApp("noop", func(Args) (any, error) { return nil, nil })
	for i := 0; i < 20; i++ {
		if _, err := dfk.Submit(app, Args{}, CallOpts{Label: "run"}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// 20 tasks × 3 events each with a cap of 4: the log must have been
	// truncated to at most 2×cap, keeping the most recent events.
	events := dfk.EventsFor("run")
	if len(events) > 8 {
		t.Errorf("event log holds %d events, cap 4 should bound it to ≤ 8", len(events))
	}
	last := events[len(events)-1]
	if last.State != StateDone || last.TaskID != 19 {
		t.Errorf("newest event = task %d %v, want task 19 exec_done", last.TaskID, last.State)
	}
}

// TestEventRecordIs32Bytes pins the retained size of one task event.
func TestEventRecordIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(eventRec{}); n != 32 {
		t.Errorf("eventRec is %d bytes, want 32", n)
	}
}

// TestUnlabeledEventsNotRetained checks that tasks submitted without a label
// leave nothing in the event index: only hooks see their events.
func TestUnlabeledEventsNotRetained(t *testing.T) {
	d := loadTest(t, Config{})
	mirror := mirrorEvents(t, d)
	app := NewGoApp("noop", func(Args) (any, error) { return nil, nil })
	for i := 0; i < 5; i++ {
		if _, err := d.Submit(app, Args{}, CallOpts{}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	d.Wait()
	if st := d.IndexStats(); st.Labels != 0 || st.LabelEvents != 0 || st.Tasks != 0 {
		t.Errorf("index after unlabeled tasks = %+v, want empty", st)
	}
	if n := len(mirror.all()); n != 15 {
		t.Errorf("hook saw %d events, want 15", n)
	}
}

// TestAppInterningOverflowSafe fills one log with more distinct app names
// than its index holds: the log drops its older events to make room and every
// retained event keeps its own app name.
func TestAppInterningOverflowSafe(t *testing.T) {
	saved := maxLogApps
	maxLogApps = 8
	defer func() { maxLogApps = saved }()
	d := loadTest(t, Config{MaxEvents: -1})
	const n = 30
	for i := 0; i < n; i++ {
		app := NewGoApp(fmt.Sprintf("app-%d", i), func(Args) (any, error) { return nil, nil })
		if _, err := d.Submit(app, Args{}, CallOpts{Label: "run"}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	events := d.EventsFor("run")
	if len(events) == 0 || len(events) >= 3*n {
		t.Fatalf("log holds %d of %d events, want a truncated tail", len(events), 3*n)
	}
	for _, ev := range events {
		if want := fmt.Sprintf("app-%d", ev.TaskID); ev.App != want {
			t.Errorf("task %d event carries app %q, want %q", ev.TaskID, ev.App, want)
		}
	}
	if last := events[len(events)-1]; last.TaskID != n-1 || last.State != StateDone {
		t.Errorf("newest event = task %d %v, want task %d exec_done", last.TaskID, last.State, n-1)
	}
	d.mu.Lock()
	apps := len(d.byLabel["run"].apps)
	d.mu.Unlock()
	if apps > maxLogApps {
		t.Errorf("log interned %d apps, cap %d", apps, maxLogApps)
	}
}

// TestStateCountsExact submits far more tasks than the retention cap — a mix
// that finishes done, failed, dep_fail and memo_done — and checks StateCounts
// stays exact and no finished task stays tracked.
func TestStateCountsExact(t *testing.T) {
	const limit, rounds = 8, 100
	dfk, err := Load(Config{
		Executors: []Executor{NewThreadPoolExecutor("threads", 2)},
		MaxEvents: limit,
		Memoize:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	ok := NewGoApp("ok", func(Args) (any, error) { return nil, nil })
	bad := NewGoApp("bad", func(Args) (any, error) { return nil, errors.New("boom") })
	memo := NewGoApp("memo", func(Args) (any, error) { return 1, nil })
	for i := 0; i < rounds; i++ {
		dfk.Submit(ok, Args{}, CallOpts{NoMemo: true})
		failed := dfk.Submit(bad, Args{"i": i}, CallOpts{})
		dfk.Submit(ok, Args{"dep": failed}, CallOpts{NoMemo: true})
		dfk.Submit(memo, Args{}, CallOpts{})
	}
	dfk.Wait()

	if st := dfk.IndexStats(); st.Tasks != 0 {
		t.Errorf("%d tasks still tracked after all %d finished", st.Tasks, 4*rounds)
	}
	want := map[TaskState]int{
		StateDone:    rounds + 1, // every ok task plus the one memo owner
		StateFailed:  rounds,
		StateDepFail: rounds,
		StateMemoHit: rounds - 1,
	}
	counts := dfk.StateCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 4*rounds {
		t.Errorf("StateCounts total = %d, want %d submitted: %v", total, 4*rounds, counts)
	}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("StateCounts = %v, want %v", counts, want)
	}
}

// TestStateCountsTrackLiveTasks checks the pending and launched totals while
// tasks are in flight, including a relaunch, which must not count twice.
func TestStateCountsTrackLiveTasks(t *testing.T) {
	ex := &heldExec{launched: make(chan heldTask, 4)}
	d := loadTest(t, Config{Executors: []Executor{ex}})
	gate := NewGoApp("gate", func(Args) (any, error) { return nil, nil })
	first := d.Submit(gate, Args{}, CallOpts{})
	d.Submit(gate, Args{"dep": first}, CallOpts{})
	held := <-ex.launched
	check := func(when string, want map[TaskState]int) {
		t.Helper()
		if got := d.StateCounts(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: StateCounts = %v, want %v", when, got, want)
		}
		live := 0
		for _, n := range want {
			live += n
		}
		if st := d.IndexStats(); st.Tasks != live-want[StateDone] {
			t.Errorf("%s: %d live tasks, want %d", when, st.Tasks, live-want[StateDone])
		}
	}
	check("one launched, one waiting", map[TaskState]int{StateLaunched: 1, StatePending: 1})
	held.task.Retried(errors.New("worker lost"))
	check("after a relaunch", map[TaskState]int{StateLaunched: 1, StatePending: 1})
	held.done(nil, nil)
	second := <-ex.launched
	check("second launched", map[TaskState]int{StateLaunched: 1, StateDone: 1})
	second.done(nil, nil)
	d.Wait()
	check("all done", map[TaskState]int{StateDone: 2})
}

// heldExec hands every launched task to the test, which completes it by hand.
type heldExec struct{ launched chan heldTask }

type heldTask struct {
	task *Task
	done func(any, error)
}

func (h *heldExec) Label() string { return "held" }
func (h *heldExec) Start() error  { return nil }
func (h *heldExec) Submit(t *Task, done func(any, error)) {
	h.launched <- heldTask{task: t, done: done}
}
func (h *heldExec) Outstanding() int { return 0 }
func (h *heldExec) Shutdown() error  { return nil }

func TestEventHookSeesAllEventsAndUnregisters(t *testing.T) {
	dfk, err := Load(Config{
		Executors: []Executor{NewThreadPoolExecutor("threads", 2)},
		MaxEvents: 2, // aggressive truncation must not affect hooks
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	var seen atomic.Int64
	remove := dfk.OnTaskEvent(func(TaskEvent) { seen.Add(1) })
	app := NewGoApp("noop", func(Args) (any, error) { return nil, nil })
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := dfk.Submit(app, Args{}, CallOpts{}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := seen.Load(); got != 3*n { // pending, launched, exec_done
		t.Errorf("hook saw %d events, want %d", got, 3*n)
	}
	remove()
	if _, err := dfk.Submit(app, Args{}, CallOpts{}).Wait(); err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got != 3*n {
		t.Errorf("hook saw %d events after unregistering, want %d", got, 3*n)
	}
}

// TestLabelIndexChurnConcurrent hammers the per-label event index from every
// side at once: submitters forcing LRU label eviction (MaxLabels far below
// the label count), a ForgetLabel churner, and readers streaming EventsFor
// and IndexStats. Run under -race it proves the index survives concurrent
// eviction + explicit forgetting + reads; functionally it checks the bound
// holds and reads never surface another label's events.
func TestLabelIndexChurnConcurrent(t *testing.T) {
	const maxLabels = 8
	dfk, err := Load(Config{
		Executors: []Executor{NewThreadPoolExecutor("threads", 4)},
		MaxEvents: 64,
		MaxLabels: maxLabels,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	app := NewGoApp("churn", func(Args) (any, error) { return nil, nil })
	labelOf := func(i int) string { return "run-" + string(rune('a'+i%26)) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Readers: stream EventsFor and IndexStats while writers churn.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				label := labelOf(i + r)
				for _, ev := range dfk.EventsFor(label) {
					if ev.Label != label {
						t.Errorf("EventsFor(%q) surfaced event labelled %q", label, ev.Label)
						return
					}
				}
				dfk.IndexStats()
			}
		}(r)
	}
	// Forgetter: retire labels while submissions for them may be in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			dfk.ForgetLabel(labelOf(i))
		}
	}()
	// Submitters: 26 distinct labels against a cap of 8 forces constant
	// LRU eviction.
	var futs []*AppFuture
	for w := 0; w < 4; w++ {
		for i := 0; i < 50; i++ {
			futs = append(futs, dfk.Submit(app, Args{}, CallOpts{Label: labelOf(w*50 + i)}))
		}
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	st := dfk.IndexStats()
	if st.Labels > maxLabels {
		t.Errorf("label index holds %d labels after churn, cap %d", st.Labels, maxLabels)
	}
	if st.LabelEvents > st.Labels*2*64 {
		t.Errorf("per-label event retention exceeded: %d events across %d labels", st.LabelEvents, st.Labels)
	}
}

func TestNoMemoOptBypassesMemoization(t *testing.T) {
	dfk, err := Load(Config{
		Executors: []Executor{NewThreadPoolExecutor("threads", 2)},
		Memoize:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dfk.Cleanup()
	var calls atomic.Int64
	app := NewGoApp("same-name", func(Args) (any, error) { return calls.Add(1), nil })
	r1, _ := dfk.Submit(app, Args{}, CallOpts{NoMemo: true}).Wait()
	r2, _ := dfk.Submit(app, Args{}, CallOpts{NoMemo: true}).Wait()
	if r1 == r2 {
		t.Errorf("NoMemo submissions shared a result: %v", r1)
	}
	// Without NoMemo the identical submission memo-hits.
	r3, _ := dfk.Submit(app, Args{}, CallOpts{}).Wait()
	r4, _ := dfk.Submit(app, Args{}, CallOpts{}).Wait()
	if r3 != r4 {
		t.Errorf("memoized submissions diverged: %v vs %v", r3, r4)
	}
}
