package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parsl"
	"repro/internal/tenant"
	"repro/internal/yamlx"
)

// testRegistry builds a registry or fails the test.
func testRegistry(t *testing.T, tenants ...tenant.Tenant) *tenant.Registry {
	t.Helper()
	reg, err := tenant.NewRegistry(tenants...)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// drainScheduler waits until the scheduler is fully idle.
func drainScheduler(t *testing.T, s *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if q, r := s.Depths(); q == 0 && r == 0 {
			return
		}
		if time.Now().After(deadline) {
			q, r := s.Depths()
			t.Fatalf("scheduler never drained: queued=%d running=%d", q, r)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSchedulerFairShareWeights saturates one worker with two tenants at 2:1
// weights and checks the dequeue mix: over any window the heavy tenant must
// get about twice the light tenant's share, within 20%.
func TestSchedulerFairShareWeights(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	limits := func(name string) TenantLimits {
		if name == "heavy" {
			return TenantLimits{Weight: 2}
		}
		return TenantLimits{Weight: 1}
	}
	s := NewScheduler(1, -1, limits, func(ctx context.Context, id string) {
		if id == "plug" {
			<-gate
			return
		}
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	})
	defer s.Close(context.Background())

	// Occupy the single worker so both backlogs build before any dequeue.
	if err := s.Enqueue("plug", "plugger", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, running := s.Depths(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plug job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	const perTenant = 40
	for i := 0; i < perTenant; i++ {
		if err := s.Enqueue(fmt.Sprintf("h%02d", i), "heavy", 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue(fmt.Sprintf("l%02d", i), "light", 0); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	drainScheduler(t, s)

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2*perTenant {
		t.Fatalf("executed %d jobs, want %d", len(order), 2*perTenant)
	}
	// While both tenants are backlogged — the first 3*perTenant/2 dequeues,
	// after which the heavy queue empties — heavy should take ~2/3 of slots.
	window := order[:perTenant*3/2]
	heavy := 0
	for _, id := range window {
		if strings.HasPrefix(id, "h") {
			heavy++
		}
	}
	light := len(window) - heavy
	if light == 0 {
		t.Fatalf("light tenant fully starved in window: %v", window)
	}
	ratio := float64(heavy) / float64(light)
	// 2:1 within 20%.
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("heavy:light = %d:%d (ratio %.2f), want 2:1 within 20%%", heavy, light, ratio)
	}
}

// TestSchedulerPriorityIsIntraTenantOnly gives the light tenant absurdly high
// priorities and checks they do not buy cross-tenant share: priority orders
// one tenant's queue; weight divides capacity.
func TestSchedulerPriorityIsIntraTenantOnly(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	s := NewScheduler(1, -1, nil, func(ctx context.Context, id string) {
		if id == "plug" {
			<-gate
			return
		}
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	})
	defer s.Close(context.Background())
	if err := s.Enqueue("plug", "plugger", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, running := s.Depths(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plug job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	const perTenant = 10
	for i := 0; i < perTenant; i++ {
		// The "pushy" tenant asks for (and gets clamped from) a huge priority.
		if err := s.Enqueue(fmt.Sprintf("p%02d", i), "pushy", 100000); err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue(fmt.Sprintf("q%02d", i), "quiet", 0); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	drainScheduler(t, s)

	mu.Lock()
	defer mu.Unlock()
	// Equal weights: in the first 2*k dequeues each tenant gets k ± 1,
	// regardless of the pushy tenant's priorities.
	half := order[:perTenant]
	pushy := 0
	for _, id := range half {
		if strings.HasPrefix(id, "p") {
			pushy++
		}
	}
	if pushy > perTenant/2+1 || pushy < perTenant/2-1 {
		t.Errorf("pushy got %d of first %d slots despite equal weight: %v", pushy, perTenant, half)
	}
}

// TestSchedulerDuplicateEnqueueRejected covers the admission bug the old
// global heap had: a second enqueue of a live id silently overwrote the
// queued-map entry and the id could execute twice.
func TestSchedulerDuplicateEnqueueRejected(t *testing.T) {
	gate := make(chan struct{})
	var execs sync.Map
	s := NewScheduler(1, -1, nil, func(ctx context.Context, id string) {
		n, _ := execs.LoadOrStore(id, 0)
		execs.Store(id, n.(int)+1)
		<-gate
	})
	defer s.Close(context.Background())

	if err := s.Enqueue("dup", "default", 0); err != nil {
		t.Fatal(err)
	}
	// Duplicate while queued or running (either way: it is live).
	if err := s.Enqueue("dup", "default", 5); !errors.Is(err, ErrDuplicateRun) {
		t.Fatalf("duplicate enqueue = %v, want ErrDuplicateRun", err)
	}
	// Wait for it to start running, then the duplicate must still be refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, running := s.Depths(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Enqueue("dup", "default", 0); !errors.Is(err, ErrDuplicateRun) {
		t.Fatalf("enqueue of running id = %v, want ErrDuplicateRun", err)
	}
	close(gate)
	drainScheduler(t, s)
	if n, _ := execs.Load("dup"); n != 1 {
		t.Errorf("dup executed %v times", n)
	}
}

// TestSchedulerCancelThenReenqueue checks that a canceled id frees its slot:
// cancel must fully remove the queued entry so the id can be resubmitted.
func TestSchedulerCancelThenReenqueue(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var ran []string
	s := NewScheduler(1, -1, nil, func(ctx context.Context, id string) {
		if id == "plug" {
			<-gate
			return
		}
		mu.Lock()
		ran = append(ran, id)
		mu.Unlock()
	})
	defer s.Close(context.Background())
	if err := s.Enqueue("plug", "default", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, running := s.Depths(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plug never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Enqueue("x", "default", 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Cancel("x"); got != CancelDequeued {
		t.Fatalf("Cancel = %v, want CancelDequeued", got)
	}
	// The id is free again: re-enqueue must succeed, and the job must run
	// exactly once (the canceled heap entry is skipped, not executed).
	if err := s.Enqueue("x", "default", 0); err != nil {
		t.Fatalf("re-enqueue after cancel: %v", err)
	}
	close(gate)
	drainScheduler(t, s)
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != "x" {
		t.Errorf("ran = %v, want exactly one x", ran)
	}
}

// TestSchedulerConcurrentCancelRace races Cancel against workers completing
// the same jobs. Run under -race: the invariant is no double-execution, no
// lost bookkeeping, and a fully drained scheduler at the end.
func TestSchedulerConcurrentCancelRace(t *testing.T) {
	var execs sync.Map
	s := NewScheduler(4, -1, nil, func(ctx context.Context, id string) {
		n, _ := execs.LoadOrStore(id, 0)
		execs.Store(id, n.(int)+1)
	})
	defer s.Close(context.Background())
	const jobs = 200
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("job-%03d", i)
		if err := s.Enqueue(id, fmt.Sprintf("t%d", i%3), 0); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Cancel(id) // races the worker completing it
		}()
	}
	wg.Wait()
	drainScheduler(t, s)
	execs.Range(func(k, v any) bool {
		if v.(int) > 1 {
			t.Errorf("job %v executed %d times", k, v)
		}
		return true
	})
}

// TestSchedulerMaxRunningSkipsNotBlocks pins tenant "capped" at one
// concurrent run and checks that its deep backlog does not stall another
// tenant's work while the cap is saturated.
func TestSchedulerMaxRunningSkipsNotBlocks(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var otherDone int
	limits := func(name string) TenantLimits {
		if name == "capped" {
			return TenantLimits{MaxRunning: 1}
		}
		return TenantLimits{}
	}
	s := NewScheduler(2, -1, limits, func(ctx context.Context, id string) {
		if strings.HasPrefix(id, "capped") {
			<-release
			return
		}
		mu.Lock()
		otherDone++
		mu.Unlock()
	})
	defer s.Close(context.Background())
	for i := 0; i < 6; i++ {
		if err := s.Enqueue(fmt.Sprintf("capped-%d", i), "capped", 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := s.Enqueue(fmt.Sprintf("other-%d", i), "other", 0); err != nil {
			t.Fatal(err)
		}
	}
	// With 2 workers and capped held at 1 running (blocked), the other tenant
	// must complete all 6 jobs on the second worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		done := otherDone
		mu.Unlock()
		if done == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("other tenant finished %d/6 while capped tenant held its cap", done)
		}
		time.Sleep(2 * time.Millisecond)
	}
	depths := s.TenantDepths()
	if d := depths["capped"]; d.Running != 1 || d.Queued != 5 {
		t.Errorf("capped depths = %+v, want 1 running / 5 queued", d)
	}
	close(release)
	drainScheduler(t, s)
}

// TestSubmitClampsPriority covers the admission bug where the HTTP layer
// passed client priorities through unclamped.
func TestSubmitClampsPriority(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 2})
	snap, err := svc.Submit(SubmitRequest{
		Source:   []byte(echoTool),
		Inputs:   yamlx.MapOf("message", "hi"),
		Priority: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Priority != MaxPriority {
		t.Errorf("priority = %d, want clamped to %d", snap.Priority, MaxPriority)
	}
	low, err := svc.Submit(SubmitRequest{
		Source:   []byte(echoTool),
		Inputs:   yamlx.MapOf("message", "lo"),
		Priority: -99999,
	})
	if err != nil {
		t.Fatal(err)
	}
	if low.Priority != MinPriority {
		t.Errorf("priority = %d, want clamped to %d", low.Priority, MinPriority)
	}
	waitTerminal(t, svc, snap.ID)
	waitTerminal(t, svc, low.ID)
}

// TestCrossTenantResultCacheSharing submits identical work from two tenants:
// the second tenant's run must be served whole from the shared result cache,
// succeeding without executing. A private tenant must bypass the cache.
func TestCrossTenantResultCacheSharing(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "alpha", Key: "ka"},
		tenant.Tenant{Name: "beta", Key: "kb"},
		tenant.Tenant{Name: "shy", Key: "ks", Private: true},
	)
	svc, _ := newTestService(t, Options{Workers: 2, Tenants: reg, ResultCacheSize: 16})

	inputs := yamlx.MapOf("message", "shared result")
	first, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: inputs, Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, svc, first.ID)
	if final.State != RunSucceeded || final.ResultCached {
		t.Fatalf("first run = %+v", final)
	}

	second, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "shared result"), Tenant: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.ResultCached {
		t.Errorf("beta's identical submission missed the shared result cache: %+v", second)
	}
	if second.State != RunSucceeded {
		t.Errorf("result-cached run state = %v, want succeeded immediately", second.State)
	}
	if second.Outputs == nil || string(second.Outputs) != string(final.Outputs) {
		t.Errorf("shared outputs = %s, want %s", second.Outputs, final.Outputs)
	}
	if second.Tenant != "beta" {
		t.Errorf("tenant = %q", second.Tenant)
	}

	// Different inputs: a genuine miss.
	third, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "different"), Tenant: "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if third.ResultCached {
		t.Error("different inputs served from the result cache")
	}
	waitTerminal(t, svc, third.ID)

	// Private tenant: identical work, but opted out of sharing.
	shy, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "shared result"), Tenant: "shy"})
	if err != nil {
		t.Fatal(err)
	}
	if shy.ResultCached {
		t.Error("private tenant served from the shared result cache")
	}
	waitTerminal(t, svc, shy.ID)

	st := svc.Stats()
	if st.ResultCacheHits < 1 || st.ResultCacheEntries < 1 {
		t.Errorf("result cache stats = hits %d entries %d", st.ResultCacheHits, st.ResultCacheEntries)
	}
	if st.Tenants == nil {
		t.Fatal("tenant stats missing")
	}
	if _, ok := st.Tenants["alpha"]; !ok {
		t.Errorf("tenant stats = %+v", st.Tenants)
	}
}

// TestTenantQuotaDoesNotShedOthers saturates tenant "noisy" to its queue
// quota and checks the quota sheds only noisy: tenant "calm" must still be
// admitted — the acceptance criterion that no tenant at quota can shed
// another tenant's submissions.
func TestTenantQuotaDoesNotShedOthers(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "noisy", Key: "kn", MaxQueued: 1},
		tenant.Tenant{Name: "calm", Key: "kc"},
	)
	svc, _ := newTestService(t, Options{Workers: 1, QueueDepth: 64, Tenants: reg, CheckpointPeriod: time.Hour})

	// Occupy the single worker so later submissions stay queued.
	hold, err := svc.Submit(SubmitRequest{Source: []byte(sleepTool), Tenant: "noisy"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if snap, _ := svc.Get(hold.ID); snap.State == RunRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("holder run never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fill noisy's quota (MaxQueued 1), then overflow it.
	if _, err := svc.Submit(SubmitRequest{Source: []byte(sleepTool), Tenant: "noisy"}); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Submit(SubmitRequest{Source: []byte(sleepTool), Tenant: "noisy"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submission = %v, want ErrQuotaExceeded", err)
	}
	// The shed carries a derived Retry-After.
	var ra interface{ RetryAfterSeconds() int }
	if !errors.As(err, &ra) || ra.RetryAfterSeconds() < 1 || ra.RetryAfterSeconds() > 60 {
		t.Errorf("quota shed lacks a sane Retry-After: %v", err)
	}

	// Calm is untouched by noisy's quota.
	calm, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "through"), Tenant: "calm"})
	if err != nil {
		t.Fatalf("calm tenant shed by noisy's quota: %v", err)
	}
	if got := waitTerminal(t, svc, calm.ID); got.State != RunSucceeded {
		t.Errorf("calm run = %+v", got)
	}
}

// TestTenantCPUBudgetShedsSubmissions exhausts a tenant's CPU-seconds budget
// and checks further submissions are refused with ErrQuotaExceeded while an
// unbudgeted tenant still passes.
func TestTenantCPUBudgetShedsSubmissions(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "metered", Key: "km", CPUSeconds: 0.000001},
		tenant.Tenant{Name: "free", Key: "kf"},
	)
	svc, _ := newTestService(t, Options{Workers: 2, Tenants: reg})

	// First run is admitted (budget not yet consumed) and its duration is
	// charged on completion.
	first, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "x"), Tenant: "metered"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, svc, first.ID)
	deadline := time.Now().Add(5 * time.Second)
	for svc.store.cpuSeconds("metered") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("completed run never charged CPU seconds")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "y"), Tenant: "metered"})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-budget submission = %v, want ErrQuotaExceeded", err)
	}
	if _, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "z"), Tenant: "free"}); err != nil {
		t.Errorf("unbudgeted tenant shed: %v", err)
	}
}

// TestTenantCPULedger checks that the admission gate, /healthz and /metrics
// read one ledger: the run store's, charged once per finished run. A tenant
// under its budget is admitted and one at it is shed; a tenant without a
// budget is never shed; a tenant the registry does not know (a restored
// run's, say) is charged and shown on /metrics, but no budget gates it.
func TestTenantCPULedger(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "a", Key: "ka", CPUSeconds: 10},
		tenant.Tenant{Name: "b", Key: "kb"},
	)
	svc, _ := newTestService(t, Options{Workers: 2, Tenants: reg})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	open, _ := newTestService(t, Options{Workers: 1})

	// charge finishes on s a run of tenantName that started secs ago.
	n := 0
	charge := func(s *Service, tenantName string, secs float64) {
		t.Helper()
		n++
		started := time.Now().Add(-time.Duration(secs * float64(time.Second)))
		id := fmt.Sprintf("ledger-%d", n)
		s.store.Restore(RunSnapshot{ID: id, State: RunRunning, Tenant: tenantName, Started: &started}, nil)
		_, release, ok := s.store.Finish(id, runOutputs{}, nil, false)
		if !ok {
			t.Fatalf("Finish(%s) found no run", id)
		}
		release()
	}
	submit := func(s *Service, tenantName string) error {
		snap, err := s.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", tenantName), Tenant: tenantName})
		if err == nil {
			waitTerminal(t, s, snap.ID)
		}
		return err
	}
	// agree checks /healthz and /metrics report the ledger's seconds for
	// each tenant, and returns them.
	agree := func() map[string]float64 {
		t.Helper()
		ledger := svc.store.cpuLedger()
		var health struct {
			Stats Stats `json:"stats"`
		}
		getJSON(t, srv.URL+"/healthz", &health)
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		scraped := map[string]float64{}
		if fam := fams["pcwl_tenant_cpu_seconds_total"]; fam != nil {
			for _, sr := range fam.Series {
				scraped[sr.Labels[0].Value] = sr.Value
			}
		}
		if !reflect.DeepEqual(scraped, ledger) {
			t.Errorf("/metrics cpu seconds %v, ledger %v", scraped, ledger)
		}
		for _, name := range reg.Names() {
			if got := health.Stats.Tenants[name].CPUSeconds; got != ledger[name] {
				t.Errorf("/healthz tenant %s cpuSeconds %v, ledger %v", name, got, ledger[name])
			}
		}
		if _, ok := health.Stats.Tenants["ghost"]; ok {
			t.Error("/healthz lists a tenant the registry does not define")
		}
		return ledger
	}

	charge(svc, "a", 9.5)
	if err := submit(svc, "a"); err != nil {
		t.Fatalf("tenant under its budget shed: %v", err)
	}
	if used := agree()["a"]; used < 9.5 || used >= 10 {
		t.Fatalf("tenant a charged %v s, want its runs' 9.5 s and a bit", used)
	}
	charge(svc, "a", 1)
	if err := submit(svc, "a"); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("tenant at its budget = %v, want ErrQuotaExceeded", err)
	}
	charge(svc, "b", 1e9)
	if err := submit(svc, "b"); err != nil {
		t.Errorf("tenant without a budget shed: %v", err)
	}
	charge(svc, "ghost", 3)
	if used := agree()["ghost"]; used < 3 {
		t.Errorf("unregistered tenant charged %v s, want 3 s", used)
	}
	if err := submit(svc, "ghost"); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("unregistered tenant = %v, want ErrUnauthorized, not a budget shed", err)
	}
	charge(open, "ghost", 1e9)
	if err := submit(open, "ghost"); err != nil {
		t.Errorf("open service gated a charged tenant: %v", err)
	}
}

// TestSubmitUnknownTenantRejected checks a submission naming an unregistered
// tenant fails closed.
func TestSubmitUnknownTenantRejected(t *testing.T) {
	reg := testRegistry(t, tenant.Tenant{Name: "only", Key: "ko"})
	svc, _ := newTestService(t, Options{Workers: 1, Tenants: reg})
	_, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "x"), Tenant: "stranger"})
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown tenant = %v, want ErrUnauthorized", err)
	}
	// Without an explicit tenant the request maps to "default", which this
	// registry does not define.
	_, err = svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", "x")})
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("anonymous submission = %v, want ErrUnauthorized", err)
	}
}

// TestConcurrentCancelRacingCompletion fires Cancel at runs that are
// finishing on their own. Terminal state must be exactly one of succeeded or
// canceled, never both, and the service must stay consistent under -race.
func TestConcurrentCancelRacingCompletion(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 4})
	const n = 12
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		snap, err := svc.Submit(SubmitRequest{Source: []byte(echoTool), Inputs: yamlx.MapOf("message", fmt.Sprintf("m%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Cancel(id) // may race the worker finishing the run
		}()
	}
	wg.Wait()
	for _, id := range ids {
		final := waitTerminal(t, svc, id)
		switch final.State {
		case RunSucceeded, RunCanceled, RunFailed:
		default:
			t.Errorf("run %s ended as %v", id, final.State)
		}
		if final.Finished == nil {
			t.Errorf("run %s has no finish time", id)
		}
	}
}

// TestDocCacheBytesIncludeStepIndex pins the byte accounting: a workflow
// entry must charge the prebuilt dataflow index on top of the source text, so
// the configured byte bound actually bounds resident memory.
func TestDocCacheBytesIncludeStepIndex(t *testing.T) {
	c := NewDocCache(8, 0)
	d, _, err := c.Load([]byte(twoStepWorkflow))
	if err != nil {
		t.Fatal(err)
	}
	idx := d.Index
	if idx == nil {
		t.Fatal("workflow load built no step index")
	}
	if idx.SizeEstimate() <= 0 {
		t.Fatalf("SizeEstimate = %d, want positive for a 2-step workflow", idx.SizeEstimate())
	}
	_, _, _, bytes := c.Stats()
	want := int64(len(twoStepWorkflow)) + idx.SizeEstimate()
	if bytes != want {
		t.Errorf("cache bytes = %d, want source %d + index %d = %d",
			bytes, len(twoStepWorkflow), idx.SizeEstimate(), want)
	}

	// Tools have no index: accounting is source bytes alone, and the nil
	// receiver is safe.
	c2 := NewDocCache(8, 0)
	d2, _, err := c2.Load([]byte(echoTool))
	if err != nil {
		t.Fatal(err)
	}
	idx2 := d2.Index
	if idx2.SizeEstimate() != 0 {
		t.Errorf("tool index estimate = %d, want 0", idx2.SizeEstimate())
	}
	if _, _, _, b2 := c2.Stats(); b2 != int64(len(echoTool)) {
		t.Errorf("tool cache bytes = %d, want %d", b2, len(echoTool))
	}
}

// TestDrainEstimatorRate pins the drain-rate math Retry-After derives from.
func TestDrainEstimatorRate(t *testing.T) {
	var d drainEstimator
	now := time.Now()
	if got := d.ratePerSecond(now); got != 0 {
		t.Errorf("empty estimator rate = %v", got)
	}
	// 10 completions over the last 10 seconds: ~1/s.
	for i := 0; i < 10; i++ {
		d.record(now.Add(-time.Duration(i) * time.Second))
	}
	rate := d.ratePerSecond(now)
	if rate < 0.9 || rate > 1.2 {
		t.Errorf("rate = %v, want ~1.0", rate)
	}
	// Completions outside the window are ignored.
	var stale drainEstimator
	stale.record(now.Add(-2 * drainWindow))
	if got := stale.ratePerSecond(now); got != 0 {
		t.Errorf("stale-only rate = %v, want 0", got)
	}
	// A burst within one second never divides by less than 1s.
	var burst drainEstimator
	for i := 0; i < 8; i++ {
		burst.record(now)
	}
	if got := burst.ratePerSecond(now); got > 8 {
		t.Errorf("burst rate = %v, want clamped span", got)
	}
}

// TestRetryAfterDerivedFromBacklog checks shed errors carry a Retry-After
// proportional to the backlog rather than a constant.
func TestRetryAfterDerivedFromBacklog(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: 1})
	// Fabricate a drain history of ~1 run/s and a known backlog via the error
	// wrapper directly (the scheduler is idle, so backlog is 0 → floor).
	err := svc.withRetryAfter(ErrQueueFull)
	var ra interface{ RetryAfterSeconds() int }
	if !errors.As(err, &ra) {
		t.Fatal("withRetryAfter attached no RetryAfterSeconds")
	}
	if got := ra.RetryAfterSeconds(); got != minRetryAfter {
		t.Errorf("idle Retry-After = %d, want floor %d", got, minRetryAfter)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Error("wrapper hides the underlying shed error")
	}

	// A measured drain dominates when present: 30 completions in the last
	// 15s is 2/s, so a backlog of 10 suggests ~5s.
	now := time.Now()
	var fast drainEstimator
	for i := 0; i < 30; i++ {
		fast.record(now.Add(-time.Duration(i*500) * time.Millisecond))
	}
	rate := fast.ratePerSecond(now)
	if rate < 1.5 || rate > 2.5 {
		t.Fatalf("measured rate = %v, want ~2", rate)
	}
	if est := int(float64(10)/rate + 0.5); est < 4 || est > 7 {
		t.Errorf("derived backoff = %ds, want ~5s", est)
	}
}

const oneStepWorkflow = `cwlVersion: v1.2
class: Workflow
inputs:
  message: string
outputs:
  final:
    type: File
    outputSource: greet/output
steps:
  greet:
    run:
      class: CommandLineTool
      baseCommand: echo
      stdout: greet.txt
      inputs:
        message: {type: string, inputBinding: {position: 1}}
      outputs:
        output: {type: stdout}
    in: {message: message}
    out: [output]
`

// TestPrivateTenantStepMemoIsTenantScoped runs the same workflow document
// and inputs as a private tenant and as a sharing one on a durable service,
// which memoizes workflow steps. Neither order may turn the second run's step
// into a memo hit on the first run's result: its outputs must lie in its own
// run directory. The private tenant's own repeat still hits.
func TestPrivateTenantStepMemoIsTenantScoped(t *testing.T) {
	reg := testRegistry(t,
		tenant.Tenant{Name: "alpha", Key: "ka"},
		tenant.Tenant{Name: "shy", Key: "ks", Private: true},
	)
	workRoot := t.TempDir()
	dfk, err := parsl.Load(parsl.Config{
		Executors: []parsl.Executor{parsl.NewThreadPoolExecutor("threads", 4)},
		RunDir:    workRoot,
		Memoize:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(dfk, Options{
		Workers: 2, Tenants: reg, ResultCacheSize: 16,
		DataDir: t.TempDir(), WorkRoot: workRoot, CheckpointPeriod: time.Hour,
	})
	if err != nil {
		dfk.Cleanup()
		t.Fatal(err)
	}
	defer func() {
		svc.Close(context.Background())
		dfk.Cleanup()
	}()

	// run executes the workflow for tenant and returns the run and how many
	// of its tasks launched and how many were memo hits.
	run := func(tenant, message string) (snap RunSnapshot, launches, hits int) {
		t.Helper()
		snap, err := svc.Submit(SubmitRequest{Source: []byte(oneStepWorkflow), Inputs: yamlx.MapOf("message", message), Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if snap = waitTerminal(t, svc, snap.ID); snap.State != RunSucceeded {
			t.Fatalf("%s's run: %s %s", tenant, snap.State, snap.Error)
		}
		events, _ := svc.Events(snap.ID)
		for _, ev := range events {
			switch ev.State {
			case parsl.StateLaunched:
				launches++
			case parsl.StateMemoHit:
				hits++
			}
		}
		return snap, launches, hits
	}
	for _, order := range [][2]string{{"shy", "alpha"}, {"alpha", "shy"}} {
		first, second := order[0], order[1]
		message := "first run by " + first
		run(first, message)
		snap, launches, hits := run(second, message)
		if hits != 0 || launches != 1 {
			t.Errorf("%s's step after %s's identical run: %d launches, %d memo hits; want 1 launch, no hit", second, first, launches, hits)
		}
		if own := filepath.Join(workRoot, snap.ID) + string(filepath.Separator); !strings.Contains(string(snap.Outputs), own) {
			t.Errorf("%s's outputs %s lie outside its run directory %s", second, snap.Outputs, own)
		}
	}
	if _, _, hits := run("shy", "first run by alpha"); hits != 1 {
		t.Errorf("shy's repeat of its own run had %d memo hits, want 1", hits)
	}
}
