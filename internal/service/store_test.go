package service

import (
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
		state: map[string]RunState{}, work: map[string]*pendingRun{},
		started: map[string]bool{}, tenant: map[string]string{},
		cpu: map[string]float64{}, retain: retain,
	}
}

func (r *refStore) add(id string, s RunState, tenantName string, work *pendingRun, started bool) {
	if _, ok := r.state[id]; ok {
		return
	}
	r.state[id] = s
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

// finish reports whether Finish moves the run to s (and so may charge it).
func (r *refStore) finish(id string, s RunState) bool {
	if cur, ok := r.state[id]; !ok || cur.Terminal() {
		return false
	}
	r.state[id] = s
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
// List, Get, the eviction sequence, the payloads the store holds and the CPU
// ledger agree with the reference model: a payload lives only on a
// non-terminal run created with one, Start hands it out only for a queued
// run, and Finish charges a started run once — a second Finish charges
// nothing.
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
	starts, charges := 0, 0

	for step := 0; step < steps; step++ {
		var op string
		switch n := rng.Intn(100); {
		case n < 30:
			tn, work := tenants[rng.Intn(len(tenants))], payload(step)
			snap := st.Create(RunMeta{Class: "CommandLineTool", Tenant: tn}, work)
			ref.add(snap.ID, RunQueued, tn, work, false)
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
			snap, _, _ := st.Finish(id, nil, err, s == RunCanceled)
			if ref.finish(id, s) && ref.started[id] {
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
			if s == RunRunning {
				started := time.Now().Add(-time.Duration(rng.Intn(1000)) * time.Millisecond)
				snap.Started = &started
			}
			work := payload(step)
			st.Restore(snap, work)
			ref.add(id, s, snap.Tenant, work, snap.Started != nil)
			known = append(known, id)
			op = fmt.Sprintf("restore %s %v", id, s)
		}

		var got []string
		for _, snap := range st.List() {
			got = append(got, snap.ID)
			if snap.State != ref.state[snap.ID] {
				t.Fatalf("step %d (%s): List state of %s = %v, model %v", step, op, snap.ID, snap.State, ref.state[snap.ID])
			}
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
		}
		if ledger := st.cpuLedger(); !reflect.DeepEqual(ledger, ref.cpu) {
			t.Fatalf("step %d (%s): CPU ledger %v, model %v", step, op, ledger, ref.cpu)
		}
	}
	if len(ref.evicted) == 0 && retain > 0 {
		t.Fatalf("retain=%d: the interleaving never evicted a run", retain)
	}
	if starts == 0 || charges == 0 {
		t.Fatalf("the interleaving started %d runs and charged %d", starts, charges)
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
			st.Finish(snap.ID, nil, nil, false)
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
