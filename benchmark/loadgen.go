package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"
)

// sample is one run that reached succeeded with correct outputs.
type sample struct {
	admitMs float64 // POST sent (open loop: due) → 201 received
	runMs   float64 // POST sent (open loop: due) → terminal state
	done    time.Time
	// queueMs and execMs come from the snapshot: startedAt−createdAt and
	// finishedAt−startedAt. Both are zero for a result-cache hit.
	queueMs, execMs float64
}

// phase is the outcome of driving one serve process for one interval.
type phase struct {
	attempted, failed int
	samples           []sample // completion order
	elapsed           time.Duration
	lateMs            []float64 // open loop: actual send − due
	firstErr          error
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.samples = append(p.samples, q.samples...)
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func (p *phase) column(f func(sample) float64) []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = f(s)
	}
	return out
}

// executed is column over the runs that executed: every run of a closed-loop
// workload, the result-cache misses of mixed_open.
func (p *phase) executed(f func(sample) float64) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.execMs > 0 {
			out = append(out, f(s))
		}
	}
	return out
}

// Columns of a sample.
func runMs(s sample) float64   { return s.runMs }
func admitMs(s sample) float64 { return s.admitMs }
func queueMs(s sample) float64 { return s.queueMs }
func execMs(s sample) float64  { return s.execMs }

func (p *phase) runsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(len(p.samples)) / p.elapsed.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// driver sends one workload's requests to one serve process.
type driver struct {
	e  *env
	w  workload
	c  *client
	tr *tracer // nil with tracing off
	// eventsMs collects the client time of each GET /runs/{id}/events.
	eventsMs []float64
	mu       sync.Mutex
}

// finish verifies a terminal snapshot and turns it into a sample.
func (d *driver) finish(req request, snap snapshot, admit, run time.Duration, done time.Time) (sample, error) {
	if snap.State != "succeeded" {
		return sample{}, fmt.Errorf("run %s %s: %s", snap.ID, snap.State, snap.Error)
	}
	if req.hot >= 0 {
		if !snap.ResultCached {
			return sample{}, fmt.Errorf("run %s repeats pair %d but was not served from the result cache", snap.ID, req.hot)
		}
		if !reflect.DeepEqual(snap.Outputs, d.e.hotOutputs[req.hot]) {
			return sample{}, fmt.Errorf("run %s: cached outputs differ from the first run of pair %d", snap.ID, req.hot)
		}
	} else if err := d.w.check(d.e, req, snap.Outputs); err != nil {
		return sample{}, fmt.Errorf("run %s: %w", snap.ID, err)
	}
	s := sample{admitMs: ms(admit), runMs: ms(run), done: done}
	if snap.Started != nil && snap.Finished != nil {
		s.queueMs = ms(snap.Started.Sub(snap.Created))
		s.execMs = ms(snap.Finished.Sub(*snap.Started))
	}
	return s, nil
}

// trace records the client spans of one run and fetches serve's spans for
// it. The fetch is timed on its own and lies outside the client span.
func (d *driver) trace(ctx context.Context, key, id string, sent, admitted, done time.Time) {
	if d.tr == nil {
		return
	}
	// Serve's spans carry wall-clock times only; strip the monotonic reading
	// from ours so that all spans of a trace subtract on one clock.
	sent, admitted, done = sent.Round(0), admitted.Round(0), done.Round(0)
	spans := []span{
		{Trace: id, ID: spanClient, Name: "client.run", Kind: "client", Start: sent, End: done},
		{Trace: id, ID: spanPost, Parent: spanClient, Name: "client.post", Kind: "client", Start: sent, End: admitted},
	}
	if done.After(admitted) {
		spans = append(spans, span{Trace: id, ID: spanWait, Parent: spanClient, Name: "client.wait", Kind: "client", Start: admitted, End: done})
	}
	t0 := time.Now()
	data, err := d.c.get(ctx, "/runs/"+id+"/events", key)
	t1 := time.Now()
	if err == nil {
		var body struct {
			Spans []span `json:"spans"`
		}
		if json.Unmarshal(data, &body) == nil {
			for _, s := range body.Spans {
				if s.ID == spanServer {
					s.Parent = spanClient
				}
				spans = append(spans, s)
			}
		}
		spans = append(spans, span{Trace: id, ID: spanEvents, Name: "client.events", Kind: "client", Start: t0.Round(0), End: t1.Round(0)})
		d.mu.Lock()
		d.eventsMs = append(d.eventsMs, ms(t1.Sub(t0)))
		d.mu.Unlock()
	}
	d.tr.add(spans...)
}

// one performs one closed-loop run: POST, then long-poll to terminal.
func (d *driver) one(ctx context.Context, req request, p *phase) {
	p.attempted++
	body, err := encodeRequest(req)
	if err != nil {
		p.fail(err)
		return
	}
	key := req.key()
	sent := time.Now()
	snap, err := d.c.post(ctx, key, body)
	admitted := time.Now()
	if err != nil {
		p.fail(err)
		return
	}
	done := admitted
	if !snap.terminal() {
		if snap, err = d.c.wait(ctx, key, snap.ID); err != nil {
			p.fail(err)
			return
		}
		done = time.Now()
	}
	s, err := d.finish(req, snap, admitted.Sub(sent), done.Sub(sent), done)
	if err != nil {
		p.fail(err)
		return
	}
	p.samples = append(p.samples, s)
	d.trace(ctx, key, snap.ID, sent, admitted, done)
}

// closedLoop runs clients concurrent clients for dur; each sends its next
// request only after the previous run is terminal. phaseID keeps the
// generated inputs of different phases apart.
func (d *driver) closedLoop(ctx context.Context, phaseID, clients int, dur time.Duration) *phase {
	parts := make([]*phase, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		parts[c] = &phase{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.e.seed*1000 + int64(phaseID)*10 + int64(c)))
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				d.one(ctx, d.w.gen(d.e, rng, phaseID*100+c, i), parts[c])
			}
		}(c)
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	sort.Slice(total.samples, func(i, j int) bool { return total.samples[i].done.Before(total.samples[j].done) })
	return total
}

// arrival is one entry of the open-loop schedule.
type arrival struct {
	due time.Duration // offset from the start of the phase
	req request
}

// schedule draws Poisson arrivals at rate per second for dur from the seed:
// the same seed gives the same due times and the same requests. One arrival
// in coldEvery is unique, the others repeat one of the primed pairs.
func schedule(e *env, w workload, seed int64, rate float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	at := time.Duration(0)
	for i := 0; ; i++ {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			// Whole groups only, so that per-run counts repeat exactly.
			return out[:len(out)-len(out)%coldEvery]
		}
		var req request
		if i%coldEvery == coldEvery-1 {
			req = w.gen(e, rng, 0, i)
		} else {
			req = e.hot[rng.Intn(hotPairs)]
			req.tenant = rng.Intn(tenantsN)
		}
		out = append(out, arrival{due: at, req: req})
	}
}

// inflight is an admitted open-loop run on its way to the harvester.
type inflight struct {
	req            request
	snap           snapshot
	due            time.Time
	sent, admitted time.Time
}

// openLoop sends the schedule's requests at their due times over one
// connection, whatever serve does with them, and harvests executing runs in
// submission order over the other. Latency counts from the due time, so a
// stall charges the requests queued behind it.
func (d *driver) openLoop(ctx context.Context, sched []arrival, dur time.Duration) *phase {
	p := &phase{}
	// Sized to the number of sends: the dispatcher must never block on the
	// harvester.
	pending := make(chan inflight, len(sched))
	harvested := &phase{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range pending {
			snap := f.snap
			if !snap.terminal() {
				var err error
				if snap, err = d.c.wait(ctx, f.req.key(), snap.ID); err != nil {
					harvested.fail(err)
					continue
				}
			}
			if snap.Finished == nil {
				harvested.fail(fmt.Errorf("run %s is terminal without finishedAt", snap.ID))
				continue
			}
			s, err := d.finish(f.req, snap, f.admitted.Sub(f.due), snap.Finished.Sub(f.due), *snap.Finished)
			if err != nil {
				harvested.fail(err)
				continue
			}
			harvested.samples = append(harvested.samples, s)
			if !f.snap.terminal() {
				d.trace(ctx, f.req.key(), snap.ID, f.sent, f.admitted, *snap.Finished)
			}
		}
	}()
	start := time.Now()
	for _, a := range sched {
		if ctx.Err() != nil {
			break
		}
		body, err := encodeRequest(a.req)
		p.attempted++
		if err != nil {
			p.fail(err)
			continue
		}
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		p.lateMs = append(p.lateMs, ms(sent.Sub(due)))
		snap, err := d.c.post(ctx, a.req.key(), body)
		if err != nil {
			p.fail(err)
			continue
		}
		pending <- inflight{req: a.req, snap: snap, due: due, sent: sent, admitted: time.Now()}
	}
	close(pending)
	wg.Wait()
	p.elapsed = max(time.Since(start), dur)
	p.merge(harvested)
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].done.Before(p.samples[j].done) })
	return p
}

// prime runs each repeated pair once and keeps its outputs: every later
// submission of the pair must be a result-cache hit with the same outputs.
func (d *driver) prime(ctx context.Context) error {
	d.e.hotOutputs = make([]map[string]any, len(d.e.hot))
	for k, req := range d.e.hot {
		req.hot = -1 // the first run executes
		req.tenant = k % tenantsN
		body, err := encodeRequest(req)
		if err != nil {
			return err
		}
		snap, err := d.c.post(ctx, req.key(), body)
		if err != nil {
			return err
		}
		if snap, err = d.c.wait(ctx, req.key(), snap.ID); err != nil {
			return err
		}
		if _, err := d.finish(req, snap, 0, 0, time.Now()); err != nil {
			return err
		}
		d.e.hotOutputs[k] = snap.Outputs
	}
	return nil
}
