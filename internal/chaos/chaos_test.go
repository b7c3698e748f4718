package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/parsl"
	"repro/internal/provider"
)

// quarantineOutcome is everything about a chaos run that must be
// seed-independent. Injection *stats* (kill counts, delays) are deliberately
// not here: a redispatched poison task may land on a block that is already
// dying, which costs no fresh kill — that is timing, not outcome.
type quarantineOutcome struct {
	poisonFailed bool
	poisonTaskID int
	redispatches int
	quarantined  int64
	okResults    string
}

// runQuarantineScenario drives one poison task plus co-resident work through
// an HTEX over a chaos-wrapped local provider.
func runQuarantineScenario(t *testing.T, seed int64) quarantineOutcome {
	t.Helper()
	const maxRedispatch = 3
	prov := chaos.Wrap(&provider.LocalProvider{}, chaos.Config{
		Seed:        seed,
		KillTaskIDs: []int{0},
		MaxDelay:    2 * time.Millisecond,
	})
	htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
		Label: "htex", Provider: prov,
		WorkersPerNode: 2, MaxBlocks: 3, MinBlocks: 1, InitBlocks: 1,
		HeartbeatPeriod: 20 * time.Millisecond,
		MaxRedispatch:   maxRedispatch,
	})
	d, err := parsl.Load(parsl.Config{Executors: []parsl.Executor{htex}, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()

	poison := parsl.NewGoApp("poison", func(parsl.Args) (any, error) { return "unreachable", nil })
	pfut := d.Submit(poison, parsl.Args{}, parsl.CallOpts{})
	ok := parsl.NewGoApp("ok", func(args parsl.Args) (any, error) { return args["i"], nil })
	var futs []*parsl.AppFuture
	for i := 0; i < 12; i++ {
		futs = append(futs, d.Submit(ok, parsl.Args{"i": i}, parsl.CallOpts{}))
	}

	_, perr := pfut.Wait()
	if err := parsl.WaitAll(context.Background(), futs...); err != nil {
		t.Fatalf("co-resident tasks: %v", err)
	}
	results := ""
	for _, f := range futs {
		res, rerr, _ := f.TryResult()
		if rerr != nil {
			t.Fatalf("co-resident task failed: %v", rerr)
		}
		results += fmt.Sprint(res, ",")
	}

	// At least one injected kill had to happen for the task to be poison at
	// all; the exact count depends on whether redispatches land on blocks that
	// are already dying.
	if kills := prov.Stats().Kills; kills < 1 || kills > maxRedispatch+1 {
		t.Errorf("seed %d: injected kills = %d, want 1..%d", seed, kills, maxRedispatch+1)
	}

	st := htex.Stats()
	out := quarantineOutcome{
		poisonFailed: errors.Is(perr, parsl.ErrPoisonTask),
		poisonTaskID: pfut.TaskID(),
		quarantined:  st.TasksQuarantined,
		okResults:    results,
	}
	if len(st.Quarantined) == 1 {
		out.redispatches = st.Quarantined[0].Redispatches
	}
	return out
}

// TestQuarantineOutcomeSeedIndependent is the acceptance criterion: the same
// poison scenario under two different seeds — which shuffle injected delays —
// must produce identical quarantine outcomes.
func TestQuarantineOutcomeSeedIndependent(t *testing.T) {
	a := runQuarantineScenario(t, 1)
	b := runQuarantineScenario(t, 424242)
	if a != b {
		t.Fatalf("outcome differs across seeds:\n seed 1:      %+v\n seed 424242: %+v", a, b)
	}
	if !a.poisonFailed {
		t.Error("poison task did not fail with ErrPoisonTask")
	}
	if a.redispatches != 3 {
		t.Errorf("redispatches = %d, want exactly 3", a.redispatches)
	}
	if a.quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", a.quarantined)
	}
}

// TestInjectedLaunchFailures: the wrapper fails exactly the first N launches,
// then hands through to the real provider.
func TestInjectedLaunchFailures(t *testing.T) {
	prov := chaos.Wrap(&provider.LocalProvider{}, chaos.Config{FailLaunches: 2})
	for i := 0; i < 2; i++ {
		if _, err := prov.Launch(i, 1); err == nil {
			t.Fatalf("launch %d succeeded, want injected failure", i)
		}
	}
	h, err := prov.Launch(2, 1)
	if err != nil {
		t.Fatalf("launch 3: %v", err)
	}
	defer h.Close()
	if !h.Alive() {
		t.Error("pass-through handle not alive")
	}
	res, err := runOne(h, &provider.Task{ID: 7, Fn: func() (any, error) { return "ran", nil }})
	if err != nil || res != "ran" {
		t.Fatalf("run through wrapper: res=%v err=%v", res, err)
	}
	if got := prov.Stats().LaunchesFailed; got != 2 {
		t.Errorf("launch failures = %d, want 2", got)
	}
	if prov.Name() != "chaos+local" {
		t.Errorf("name = %q", prov.Name())
	}
}

// TestKillEveryN: the per-handle dispatch counter kills deterministically on
// the Nth task, and a killed handle stays dead: later tasks never start.
func TestKillEveryN(t *testing.T) {
	prov := chaos.Wrap(&provider.LocalProvider{}, chaos.Config{KillEveryN: 3})
	h, err := prov.Launch(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fn := func() (any, error) { return nil, nil }
	for i := 1; i <= 2; i++ {
		if _, err := runOne(h, &provider.Task{ID: i, Fn: fn}); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	if _, err := runOne(h, &provider.Task{ID: 3, Fn: fn}); !errors.Is(err, provider.ErrWorkerLost) {
		t.Fatalf("exec 3: err = %v, want ErrWorkerLost", err)
	}
	if h.Alive() {
		t.Error("handle alive after injected kill")
	}
	if _, err := runOne(h, &provider.Task{ID: 4, Fn: fn}); !errors.Is(err, provider.ErrNotStarted) {
		t.Fatalf("dispatch to a dead handle: err = %v, want ErrNotStarted", err)
	}
	if got := prov.Stats().Kills; got != 1 {
		t.Errorf("kills = %d, want 1 (dead-handle hits are not new kills)", got)
	}
}

// TestKillMidBatch: a kill inside one dispatched batch splits it — the task
// ahead of the killer reached the worker and completes, the killer fails as
// lost, the tasks behind it never start.
func TestKillMidBatch(t *testing.T) {
	prov := chaos.Wrap(&provider.LocalProvider{}, chaos.Config{KillTaskIDs: []int{2}})
	h, err := prov.Launch(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		id  int
		err error
	}
	out := make(chan outcome, 4)
	var batch []*provider.Task
	for id := 1; id <= 4; id++ {
		batch = append(batch, &provider.Task{
			ID:   id,
			Fn:   func() (any, error) { return id, nil },
			Done: func(_ any, err error) { out <- outcome{id, err} },
		})
	}
	h.Dispatch(batch)
	got := map[int]error{}
	for range batch {
		o := <-out
		got[o.id] = o.err
	}
	if got[1] != nil {
		t.Errorf("task ahead of the killer: %v, want success", got[1])
	}
	if !errors.Is(got[2], provider.ErrWorkerLost) {
		t.Errorf("killing task: %v, want ErrWorkerLost", got[2])
	}
	for _, id := range []int{3, 4} {
		if !errors.Is(got[id], provider.ErrNotStarted) {
			t.Errorf("task %d behind the killer: %v, want ErrNotStarted", id, got[id])
		}
	}
}

// TestMaxKillsBound: MaxKills stops the kill schedule, letting the fleet
// recover.
func TestMaxKillsBound(t *testing.T) {
	prov := chaos.Wrap(&provider.LocalProvider{}, chaos.Config{KillEveryN: 1, MaxKills: 1})
	h1, _ := prov.Launch(0, 1)
	if _, err := runOne(h1, &provider.Task{ID: 1, Fn: func() (any, error) { return nil, nil }}); !errors.Is(err, provider.ErrWorkerLost) {
		t.Fatalf("first exec: %v, want injected kill", err)
	}
	h2, _ := prov.Launch(1, 1)
	res, err := runOne(h2, &provider.Task{ID: 2, Fn: func() (any, error) { return "ok", nil }})
	if err != nil || res != "ok" {
		t.Fatalf("post-budget exec: res=%v err=%v", res, err)
	}
}

// runOne dispatches one task on h and waits for its outcome.
func runOne(h provider.ManagerHandle, t *provider.Task) (any, error) {
	type outcome struct {
		res any
		err error
	}
	ch := make(chan outcome, 1)
	t.Done = func(res any, err error) { ch <- outcome{res, err} }
	h.Dispatch([]*provider.Task{t})
	o := <-ch
	return o.res, o.err
}
