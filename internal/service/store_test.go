package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// refStore is the reference model for RunStore: the slice-based retention
// algorithm that rebuilt the whole creation order on every prune, plus which
// run holds which payload and what the CPU ledger should read. The linked
// store must make exactly the same decisions.
type refStore struct {
	state    map[string]RunState
	outputs  map[string][]byte      // the outputs JSON of each succeeded run
	work     map[string]*pendingRun // present only on non-terminal runs created with one
	started  map[string]bool
	tenant   map[string]string
	cpu      map[string]float64
	order    []string
	retain   int
	terminal int
	evicted  []string
}

func newRefStore(retain int) *refStore {
	return &refStore{
		state: map[string]RunState{}, outputs: map[string][]byte{}, work: map[string]*pendingRun{},
		started: map[string]bool{}, tenant: map[string]string{},
		cpu: map[string]float64{}, retain: retain,
	}
}

func (r *refStore) add(id string, s RunState, tenantName string, work *pendingRun, started bool, outputs []byte) {
	if _, ok := r.state[id]; ok {
		return
	}
	r.state[id] = s
	r.outputs[id] = outputs
	r.tenant[id] = tenantName
	r.started[id] = started
	r.order = append(r.order, id)
	if s.Terminal() {
		r.terminal++
		r.prune()
	} else if work != nil {
		r.work[id] = work
	}
}

// start reports the payload Start must return, and whether it must succeed.
func (r *refStore) start(id string) (*pendingRun, bool) {
	w := r.work[id]
	if r.state[id] != RunQueued || w == nil {
		return nil, false
	}
	r.state[id] = RunRunning
	r.started[id] = true
	return w, true
}

// finish reports whether Finish moves the run to s (and so may charge it);
// only a succeeded run keeps outputs.
func (r *refStore) finish(id string, s RunState, outputs []byte) bool {
	if cur, ok := r.state[id]; !ok || cur.Terminal() {
		return false
	}
	r.state[id] = s
	if s == RunSucceeded {
		r.outputs[id] = outputs
	}
	delete(r.work, id)
	r.terminal++
	r.prune()
	return true
}

func (r *refStore) delete(id string) {
	if _, ok := r.state[id]; !ok {
		return
	}
	delete(r.state, id)
	delete(r.outputs, id)
	delete(r.work, id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

func (r *refStore) prune() {
	if r.retain <= 0 || r.terminal <= r.retain {
		return
	}
	kept := make([]string, 0, len(r.order))
	for _, id := range r.order {
		s, ok := r.state[id]
		if !ok {
			continue
		}
		if r.terminal > r.retain && s.Terminal() {
			delete(r.state, id)
			delete(r.outputs, id)
			r.terminal--
			r.evicted = append(r.evicted, id)
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
}

// TestStoreMatchesReferenceModel drives seeded random interleavings of every
// store mutation at small retention caps and checks, after each step, that
// List, Get, the eviction sequence, the payloads the store holds, the outputs
// it returns and the CPU ledger agree with the reference model: a payload
// lives only on a non-terminal run created with one, Start hands it out only
// for a queued run, Finish charges a started run once — a second Finish
// charges nothing — and a succeeded run's outputs, small (held raw) or large
// (held deflated), read back byte-identical through Finish, Get, List and
// journalRuns.
func TestStoreMatchesReferenceModel(t *testing.T) {
	for _, retain := range []int{0, 1, 2, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("retain=%d/seed=%d", retain, seed), func(t *testing.T) {
				checkStoreAgainstModel(t, retain, rand.New(rand.NewSource(seed)), 1500)
			})
		}
	}
}

func checkStoreAgainstModel(t *testing.T, retain int, rng *rand.Rand, steps int) {
	st := NewRunStore(retain)
	var evicted []string
	st.SetOnEvict(func(id string) { evicted = append(evicted, id) })
	ref := newRefStore(retain)
	var known []string // every ID ever seen, including evicted and deleted ones
	terminalStates := []RunState{RunSucceeded, RunFailed, RunCanceled}
	tenants := []string{"", "t1", "t2"}
	pick := func() string {
		if len(known) == 0 {
			return "run-missing"
		}
		return known[rng.Intn(len(known))]
	}
	// payload returns a fresh payload, or nil for a run that never executes.
	payload := func(step int) *pendingRun {
		if rng.Intn(3) == 0 {
			return nil
		}
		return &pendingRun{source: fmt.Sprintf("source-%d", step)}
	}
	// outputs returns nil, small or (rarely, as every check reads every
	// retained run) large outputs JSON unique to step.
	outputs := func(step int) []byte {
		switch n := rng.Intn(12); {
		case n < 4:
			return nil
		case n < 11:
			return []byte(fmt.Sprintf(`{"out":"small-%d"}`, step))
		}
		return scatterOutputs(t, 32, fmt.Sprintf("step-%d", step))
	}
	sameOutputs := func(step int, op, reader, id string, got []byte) {
		if want := ref.outputs[id]; !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("step %d (%s): %s: outputs of %s = %.40q (%d B), model %.40q (%d B)", step, op, reader, id, got, len(got), want, len(want))
		}
	}
	starts, charges, large := 0, 0, 0

	for step := 0; step < steps; step++ {
		var op string
		switch n := rng.Intn(100); {
		case n < 30:
			tn, work := tenants[rng.Intn(len(tenants))], payload(step)
			snap := st.Create(RunMeta{Class: "CommandLineTool", Tenant: tn}, work)
			ref.add(snap.ID, RunQueued, tn, work, false, nil)
			known = append(known, snap.ID)
			op = "create " + snap.ID
		case n < 45:
			id := pick()
			snap, work, ok := st.Start(id)
			want, wantOK := ref.start(id)
			if ok != wantOK || work != want || (ok && (snap.State != RunRunning || snap.Started == nil)) {
				t.Fatalf("step %d: Start(%s) = %v/%p/%v, model %p/%v", step, id, snap.State, work, ok, want, wantOK)
			}
			if ok {
				starts++
			}
			op = "start " + id
		case n < 80:
			id := pick()
			s := terminalStates[rng.Intn(len(terminalStates))]
			var err error
			if s == RunFailed {
				err = errors.New("boom")
			}
			raw := outputs(step)
			snap, _, _ := st.Finish(id, packOutputs(raw), err, s == RunCanceled)
			finished := ref.finish(id, s, raw)
			if _, known := ref.state[id]; known {
				sameOutputs(step, "finish", "Finish", id, snap.Outputs)
			}
			if finished && s == RunSucceeded && len(raw) >= packMin {
				large++
			}
			if finished && ref.started[id] {
				if snap.Started == nil {
					t.Fatalf("step %d: finished started run %s has no start time", step, id)
				}
				ref.cpu[tenantLabel(ref.tenant[id])] += snap.Finished.Sub(*snap.Started).Seconds()
				charges++
			}
			op = fmt.Sprintf("finish %s %v", id, s)
		case n < 88:
			id := pick()
			st.Delete(id)
			ref.delete(id)
			op = "delete " + id
		default:
			// Restore a fresh journal ID, or replay one the store may
			// already hold (which must be a no-op).
			id := fmt.Sprintf("restored-%d", step)
			if rng.Intn(4) == 0 {
				id = pick()
			}
			s := []RunState{RunQueued, RunRunning, RunSucceeded, RunFailed, RunCanceled}[rng.Intn(5)]
			snap := RunSnapshot{ID: id, State: s, Tenant: tenants[rng.Intn(len(tenants))]}
			if s == RunSucceeded {
				snap.Outputs = outputs(step)
			}
			if s == RunRunning {
				started := time.Now().Add(-time.Duration(rng.Intn(1000)) * time.Millisecond)
				snap.Started = &started
			}
			work := payload(step)
			st.Restore(snap, work)
			ref.add(id, s, snap.Tenant, work, snap.Started != nil, snap.Outputs)
			known = append(known, id)
			op = fmt.Sprintf("restore %s %v", id, s)
		}

		var got []string
		for _, snap := range st.List() {
			got = append(got, snap.ID)
			if snap.State != ref.state[snap.ID] {
				t.Fatalf("step %d (%s): List state of %s = %v, model %v", step, op, snap.ID, snap.State, ref.state[snap.ID])
			}
			sameOutputs(step, op, "List", snap.ID, snap.Outputs)
		}
		if fmt.Sprint(got) != fmt.Sprint(ref.order) {
			t.Fatalf("step %d (%s): List = %v, model %v", step, op, got, ref.order)
		}
		if !reflect.DeepEqual(evicted, ref.evicted) {
			t.Fatalf("step %d (%s): evicted %v, model %v", step, op, evicted, ref.evicted)
		}
		for _, id := range known {
			snap, ok := st.Get(id)
			s, wantOK := ref.state[id]
			if ok != wantOK || (ok && snap.State != s) {
				t.Fatalf("step %d (%s): Get(%s) = %v/%v, model %v/%v", step, op, id, snap.State, ok, s, wantOK)
			}
			if ok {
				sameOutputs(step, op, "Get", id, snap.Outputs)
			}
		}
		// The payload a compaction snapshot journals is the one the record
		// holds.
		for _, w := range st.journalRuns(func(string) bool { return true }) {
			want := ""
			if p := ref.work[w.ID]; p != nil {
				want = p.source
			}
			if w.Source != want {
				t.Fatalf("step %d (%s): %s (%v) holds payload %q, model %q", step, op, w.ID, w.State, w.Source, want)
			}
			sameOutputs(step, op, "journalRuns", w.ID, w.Outputs)
		}
		if ledger := st.cpuLedger(); !reflect.DeepEqual(ledger, ref.cpu) {
			t.Fatalf("step %d (%s): CPU ledger %v, model %v", step, op, ledger, ref.cpu)
		}
	}
	if len(ref.evicted) == 0 && retain > 0 {
		t.Fatalf("retain=%d: the interleaving never evicted a run", retain)
	}
	if starts == 0 || charges == 0 || large == 0 {
		t.Fatalf("the interleaving started %d runs, charged %d and finished %d with large outputs", starts, charges, large)
	}
}

// bytesPerRun reports the average heap bytes allocated by one call of f.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStoreEvictionCostIndependentOfRetention pins that a steady-state
// Create + Finish — one eviction per run once the cap is reached — allocates
// the same at the default retention of 4096 as at 16: eviction must not
// rebuild or copy anything sized by the retained history.
func TestStoreEvictionCostIndependentOfRetention(t *testing.T) {
	measure := func(retain int) (allocs, bytes float64) {
		st := NewRunStore(retain)
		evictions := 0
		st.SetOnEvict(func(string) { evictions++ })
		cycle := func() {
			snap := st.Create(RunMeta{Class: "CommandLineTool"}, nil)
			st.Finish(snap.ID, runOutputs{}, nil, false)
		}
		for i := 0; i < retain+64; i++ {
			cycle()
		}
		if evictions == 0 {
			t.Fatalf("retain=%d: warm-up never reached the retention cap", retain)
		}
		return testing.AllocsPerRun(500, cycle), bytesPerRun(2000, cycle)
	}
	smallAllocs, smallBytes := measure(16)
	bigAllocs, bigBytes := measure(4096)
	t.Logf("per Create+Finish: retain=16 %.1f allocs %.0f B; retain=4096 %.1f allocs %.0f B",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs > smallAllocs {
		t.Errorf("retain=4096 allocates %.1f times per run, retain=16 %.1f", bigAllocs, smallAllocs)
	}
	// Map growth under churn is amortized differently at the two sizes, so
	// allow slack; a rebuilt 4096-entry order is 64 KiB per run.
	if bigBytes > 2*smallBytes+1024 {
		t.Errorf("retain=4096 allocates %.0f B per run, retain=16 %.0f B", bigBytes, smallBytes)
	}
}
