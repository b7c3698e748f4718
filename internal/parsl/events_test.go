package parsl

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
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
		if _, err := dfk.Submit(app, Args{}, CallOpts{}).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// 20 tasks × 3 events each with a cap of 4: the log must have been
	// truncated to at most 2×cap, keeping the most recent events.
	events := dfk.Events()
	if len(events) > 8 {
		t.Errorf("event log holds %d events, cap 4 should bound it to ≤ 8", len(events))
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Errorf("newest event = %v, want exec_done", last.State)
	}
}

// TestTaskStatesBounded submits far more tasks than the retention cap — a mix
// that finishes done, failed, dep_fail and memo_done — and checks the state
// table holds only the recent window while StateCounts stays exact.
func TestTaskStatesBounded(t *testing.T) {
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

	if st := dfk.IndexStats(); st.Tasks > limit {
		t.Errorf("state table holds %d tasks after %d finished, cap %d", st.Tasks, 4*rounds, limit)
	}
	if n := len(dfk.TaskStates()); n > limit {
		t.Errorf("TaskStates returned %d tasks, cap %d", n, limit)
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
