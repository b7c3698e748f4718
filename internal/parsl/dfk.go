package parsl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provider"
)

// taskDeadline combines a submission's explicit deadline with the DFK-wide
// walltime default, keeping whichever bound is tighter. The walltime clock
// starts at launch, so each DFK-level retry gets a fresh budget.
func taskDeadline(explicit time.Time, walltime time.Duration) time.Time {
	if walltime <= 0 {
		return explicit
	}
	wt := time.Now().Add(walltime)
	if explicit.IsZero() || wt.Before(explicit) {
		return wt
	}
	return explicit
}

// TaskState is the lifecycle state of one DFK task.
type TaskState int

const (
	// StatePending means dependencies are not yet resolved.
	StatePending TaskState = iota
	// StateLaunched means the task has been handed to an executor.
	StateLaunched
	// StateDone means the task finished successfully.
	StateDone
	// StateFailed means the task (including retries) failed.
	StateFailed
	// StateDepFail means a dependency failed so the task never ran.
	StateDepFail
	// StateMemoHit means the result was served from the memoization table.
	StateMemoHit
)

// String names the state like Parsl's task state table.
func (s TaskState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateLaunched:
		return "launched"
	case StateDone:
		return "exec_done"
	case StateFailed:
		return "failed"
	case StateDepFail:
		return "dep_fail"
	case StateMemoHit:
		return "memo_done"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// TaskEvent is one monitoring record.
type TaskEvent struct {
	TaskID int
	App    string
	State  TaskState
	Time   time.Time
	Tries  int
	// Label attributes the task to a submission group (CallOpts.Label),
	// e.g. one service run multiplexed over a shared DFK.
	Label string
	// WaitDur is set on the first StateLaunched event (and on terminal
	// events of tasks that never launched, like memo hits and dep
	// failures): time from submission to this transition.
	WaitDur time.Duration
	// ExecDur is set on terminal events of launched tasks: time from first
	// launch to this transition, including executor retries/re-dispatches.
	ExecDur time.Duration
}

// Config configures a DFK, following parsl.config.Config.
type Config struct {
	// Executors to start; the first is the default.
	Executors []Executor
	// Retries is how many times a failing task is retried (0 = no retries).
	Retries int
	// Memoize enables app result caching keyed on app name + arguments.
	Memoize bool
	// RunDir is where BashApps run and redirect output by default.
	RunDir string
	// MaxEvents bounds each label's monitoring log (EventsFor): when
	// exceeded, the oldest events are discarded so a long-lived DFK (e.g.
	// under the submission service) does not grow without bound. Events of
	// unlabeled tasks are not retained; OnTaskEvent hooks see every event.
	// 0 selects the default of 65536; negative retains everything.
	MaxEvents int
	// MaxLabels bounds how many distinct labels the per-label event index
	// (EventsFor) holds; past it, the least-recently-active label is
	// evicted. 0 selects the default of 65536 — far above the service's
	// default run retention of 4096, so it acts as a leak backstop, not a
	// working-set limit. Services retaining more runs than this should
	// raise it. Negative means unbounded.
	MaxLabels int
	// MaxMemoEntries bounds the memoization table: past it, the
	// least-recently-used completed entries are evicted (an evicted entry
	// just re-executes on its next submission). A completed entry holds its
	// result as ResultCodec bytes — a few hundred for a CWL tool's outputs —
	// so this bounds both the table's memory and checkpoint snapshot size in
	// a long-lived durable service. 0 selects the default of 65536; negative
	// means unbounded. In-flight entries are never evicted.
	MaxMemoEntries int
	// TaskWalltime is the default per-task walltime (CWL ToolTimeLimit
	// style): every launch of a task must finish within this much time or be
	// failed with ErrDeadlineExceeded by a deadline-aware executor. Zero
	// disables the default; CallOpts.Deadline tightens it per submission.
	TaskWalltime time.Duration
}

// DFK is the DataFlowKernel: it tracks tasks, resolves dependencies and
// launches work onto executors.
type DFK struct {
	cfg       Config
	executors map[string]Executor
	order     []string // executor labels in Load order
	defaultEx string

	mu     sync.Mutex
	nextID int
	counts [StateMemoHit + 1]int
	// Every retained event lives in its label's log (EventsFor); events of
	// tasks submitted without a label are seen only by hooks.
	byLabel   map[string]*eventLog
	eventTick uint64 // labeled events appended so far; orders label activity
	hooks     []*taskEventHook
	memoHooks []*memoHook
	memo      map[string]*memoEntry
	memoTick  int64
	pendingAt map[int]time.Time // submit time per live task, for WaitDur; its keys are the live tasks
	launchAt  map[int]time.Time // first-launch time per launched live task, for ExecDur
	submitted int               // total Submit calls, immune to event truncation
	perApp    map[string]int    // per-app Submit counts, ditto
	pending   sync.WaitGroup
	cleaned   bool
}

// eventLog is the retained event history of one label. Records hold no
// strings: the label is the log's key and each app name is stored once in
// apps.
type eventLog struct {
	events []eventRec
	apps   []string
	// tick is the DFK's eventTick at the log's newest event, used to evict
	// the least-recently-active label once the index is full — a straggler
	// event recreating a forgotten label cannot leak forever.
	tick uint64
}

// eventRec is the retained form of one TaskEvent: 32 pointer-free bytes where
// a TaskEvent is 96 bytes holding two strings.
type eventRec struct {
	at    int64         // Time in Unix nanoseconds
	dur   time.Duration // ExecDur when exec is set, else WaitDur
	task  int
	tries int32
	app   uint16 // index into eventLog.apps
	state uint8
	exec  bool
}

// maxLogApps bounds the distinct app names one log interns, so an app index
// fits eventRec.app.
var maxLogApps = math.MaxUint16 + 1

// add records ev as the log's newest event, discarding the oldest events once
// the log doubles the retention limit (amortized O(1); limit <= 0 keeps
// everything).
func (l *eventLog) add(ev TaskEvent, limit int) {
	rec := eventRec{
		at:    ev.Time.UnixNano(),
		dur:   ev.WaitDur,
		task:  ev.TaskID,
		tries: int32(ev.Tries),
		app:   l.intern(ev.App),
		state: uint8(ev.State),
	}
	if ev.ExecDur != 0 {
		rec.dur, rec.exec = ev.ExecDur, true
	}
	l.events = append(l.events, rec)
	if limit > 0 && len(l.events) > 2*limit {
		l.truncate(limit)
	}
}

// intern returns the index of app in l.apps, adding it if new. A log holds a
// handful of apps (one per workflow step) and consecutive events mostly share
// one, so the scan starts from the newest. A new name that would overflow the
// index first drops the older half of the log's events (at most
// maxLogApps/2 stay, so at most that many names do).
func (l *eventLog) intern(app string) uint16 {
	for i := len(l.apps) - 1; i >= 0; i-- {
		if l.apps[i] == app {
			return uint16(i)
		}
	}
	if len(l.apps) >= maxLogApps {
		l.truncate(min(len(l.events), maxLogApps/2))
	}
	l.apps = append(l.apps, app)
	return uint16(len(l.apps) - 1)
}

// truncate keeps the newest keep events and only the app names they use.
func (l *eventLog) truncate(keep int) {
	old := *l
	*l = eventLog{events: make([]eventRec, 0, keep), tick: old.tick}
	for _, r := range old.events[len(old.events)-keep:] {
		r.app = l.intern(old.apps[r.app])
		l.events = append(l.events, r)
	}
}

// event expands a record of this log back into the TaskEvent it came from.
func (l *eventLog) event(r eventRec, label string) TaskEvent {
	ev := TaskEvent{
		TaskID: r.task,
		App:    l.apps[r.app],
		State:  TaskState(r.state),
		Time:   time.Unix(0, r.at),
		Tries:  int(r.tries),
		Label:  label,
	}
	if r.exec {
		ev.ExecDur = r.dur
	} else {
		ev.WaitDur = r.dur
	}
	return ev
}

type taskEventHook struct {
	fn func(TaskEvent)
}

// Load starts all executors and returns a ready DFK (parsl.load).
func Load(cfg Config) (*DFK, error) {
	if len(cfg.Executors) == 0 {
		cfg.Executors = []Executor{NewThreadPoolExecutor("threads", 4)}
	}
	d := &DFK{
		cfg:       cfg,
		executors: map[string]Executor{},
		byLabel:   map[string]*eventLog{},
		memo:      map[string]*memoEntry{},
		perApp:    map[string]int{},
		pendingAt: map[int]time.Time{},
		launchAt:  map[int]time.Time{},
	}
	for i, ex := range cfg.Executors {
		if _, dup := d.executors[ex.Label()]; dup {
			return nil, fmt.Errorf("duplicate executor label %q", ex.Label())
		}
		if err := ex.Start(); err != nil {
			return nil, fmt.Errorf("starting executor %q: %w", ex.Label(), err)
		}
		d.executors[ex.Label()] = ex
		d.order = append(d.order, ex.Label())
		if i == 0 {
			d.defaultEx = ex.Label()
		}
	}
	return d, nil
}

// ExecutorStats reports per-executor health stats in Load order, for
// monitoring surfaces like the submission service's /healthz.
func (d *DFK) ExecutorStats() []ExecutorStats {
	out := make([]ExecutorStats, 0, len(d.order))
	for _, label := range d.order {
		ex := d.executors[label]
		if sr, ok := ex.(StatsReporter); ok {
			out = append(out, sr.Stats())
			continue
		}
		out = append(out, ExecutorStats{Label: label, Outstanding: ex.Outstanding()})
	}
	return out
}

// Executor returns the executor with the given label ("" = default).
func (d *DFK) Executor(label string) (Executor, error) {
	if label == "" {
		label = d.defaultEx
	}
	ex, ok := d.executors[label]
	if !ok {
		return nil, fmt.Errorf("no executor labelled %q", label)
	}
	return ex, nil
}

// RunDir returns the configured run directory.
func (d *DFK) RunDir() string { return d.cfg.RunDir }

// TaskWalltime returns the configured default per-task walltime (0 = none).
func (d *DFK) TaskWalltime() time.Duration { return d.cfg.TaskWalltime }

// CallOpts adjusts one submission.
type CallOpts struct {
	// Executor label; "" uses the default executor.
	Executor string
	// Label tags the task's monitoring events so one submission group (e.g.
	// a service run) can be isolated from the shared event stream.
	Label string
	// NoMemo exempts this task from memoization even when the DFK enables
	// it — required when the app's identity is not captured by its name and
	// arguments (e.g. workflow step tasks that close over their tool).
	NoMemo bool
	// Outputs declares files the invocation will produce; each becomes a
	// DataFuture on the returned AppFuture.
	Outputs []File
	// Stdout/Stderr are paths for BashApp output redirection.
	Stdout string
	Stderr string
	// Cores is the resource hint forwarded to the executor.
	Cores int
	// Deadline, when non-zero, bounds the task's walltime: each launch must
	// finish by this absolute time or fail with ErrDeadlineExceeded. The
	// service derives it from the run request's deadline; it combines with
	// (and can only tighten) the DFK's TaskWalltime default.
	Deadline time.Time
}

// Submit registers an invocation of app with args and returns its future
// immediately. Dependencies (AppFutures or DataFutures nested anywhere in
// args) are awaited in the background; the task launches when all resolve.
func (d *DFK) Submit(app App, args Args, opts CallOpts) *AppFuture {
	d.mu.Lock()
	id := d.nextID
	d.nextID++
	fut := newAppFuture(id, app.Name())
	fut.stdout = opts.Stdout
	fut.stderr = opts.Stderr
	for _, f := range opts.Outputs {
		fut.outputs = append(fut.outputs, &DataFuture{parent: fut, file: f})
	}
	d.submitted++
	d.perApp[app.Name()]++
	metTasksSubmitted.Inc()
	if d.cleaned {
		// The DFK is shut down: fail fast instead of racing Cleanup's
		// pending.Wait and the executors' shutdown.
		d.recordStateLocked(id, StateFailed)
		ev := TaskEvent{TaskID: id, App: app.Name(), State: StateFailed, Time: time.Now(), Label: opts.Label}
		metTaskTransitions.With(StateFailed.String()).Inc()
		d.appendEventLocked(ev)
		hooks := d.hooks
		d.mu.Unlock()
		for _, h := range hooks {
			h.fn(ev)
		}
		fut.complete(nil, fmt.Errorf("DFK is %w", ErrShutdown))
		return fut
	}
	d.recordStateLocked(id, StatePending)
	ev := TaskEvent{TaskID: id, App: app.Name(), State: StatePending, Time: time.Now(), Label: opts.Label}
	d.pendingAt[id] = ev.Time
	metTaskTransitions.With(StatePending.String()).Inc()
	d.appendEventLocked(ev)
	hooks := d.hooks
	d.pending.Add(1)
	d.mu.Unlock()
	for _, h := range hooks {
		h.fn(ev)
	}

	deps := collectDeps(args)
	go d.resolveAndLaunch(id, app, args, opts, fut, deps)
	return fut
}

func (d *DFK) resolveAndLaunch(id int, app App, args Args, opts CallOpts, fut *AppFuture, deps []*AppFuture) {
	// Wait for dependencies.
	for _, dep := range deps {
		<-dep.Done()
		if _, err, _ := dep.TryResult(); err != nil {
			d.setState(id, app.Name(), opts.Label, StateDepFail, 0)
			fut.complete(nil, &DependencyError{TaskID: id, Dep: dep.taskID, Cause: err})
			d.pending.Done()
			return
		}
	}
	resolved := resolveArgs(args)

	// Memoization. Failed entries must not poison the table: a waiter that
	// observes a failed prior attempt evicts it and retries the lookup, so
	// exactly one concurrent submission becomes the new owner and later
	// identical submissions hit its (eventual) success.
	var memoKey string
	var owned *memoEntry // the entry this task owns, if it became the owner
	if d.cfg.Memoize && !opts.NoMemo {
		memoKey = memoHash(app.Name(), resolved, opts)
		for {
			d.mu.Lock()
			e, ok := d.memo[memoKey]
			if !ok {
				owned = &memoEntry{app: app.Name(), fut: fut}
				d.memoPutLocked(memoKey, owned)
				d.mu.Unlock()
				break
			}
			d.memoTouchLocked(e)
			owner := e.fut
			d.mu.Unlock()
			if owner != nil {
				<-owner.Done() // in flight, or holding a live value
			}
			if res, ok := d.memoResult(memoKey, e); ok {
				d.setState(id, app.Name(), opts.Label, StateMemoHit, 0)
				fut.complete(res, nil)
				d.pending.Done()
				return
			}
			// The memoized attempt failed (memoResult evicted it): loop to
			// either become the owner or wait on the replacement.
		}
	}
	// evictMemo drops this task's memo entry when it fails terminally, so
	// the failure is retried (not replayed) by later identical submissions.
	evictMemo := func() {
		if owned == nil {
			return
		}
		d.mu.Lock()
		if d.memo[memoKey] == owned {
			delete(d.memo, memoKey)
		}
		d.mu.Unlock()
	}

	ex, err := d.Executor(opts.Executor)
	if err != nil {
		d.setState(id, app.Name(), opts.Label, StateFailed, 0)
		evictMemo()
		fut.complete(nil, err)
		d.pending.Done()
		return
	}

	tc := &TaskContext{DFK: d, TaskID: id, Opts: opts}
	// Apps that can describe this invocation in serializable form make the
	// task shippable to process-isolated workers; the in-process Fn remains
	// the fallback. The spec is only built when the target executor can
	// actually ship it — serializing every invocation under a purely
	// in-process executor would tax the hot path for nothing.
	var remote *provider.RemoteSpec
	if rs, ok := app.(RemoteSpecer); ok {
		if tgt, ok := ex.(RemoteSpecTarget); ok && tgt.AcceptsRemoteSpecs() {
			remote = rs.RemoteSpec(resolved)
		}
	}
	tries := 0
	// launches numbers every launch of this task — DFK retries and
	// executor-level re-dispatches alike — so the monitoring stream's Tries
	// field is monotonic per task. It is atomic because Retried fires on
	// executor goroutines; `tries` (the retry budget) stays separate.
	var launches atomic.Int64
	var launch func()
	launch = func() {
		d.setState(id, app.Name(), opts.Label, StateLaunched, int(launches.Add(1))-1)
		task := &Task{ID: id, Cores: opts.Cores, Remote: remote, Deadline: taskDeadline(opts.Deadline, d.cfg.TaskWalltime), Fn: func() (any, error) {
			return app.Execute(tc, resolved)
		}}
		// Executor-level re-dispatch (e.g. HTEX manager loss) surfaces in
		// the monitoring stream as an extra launch; it does not consume the
		// configured retry budget.
		task.Retried = func(error) {
			d.setState(id, app.Name(), opts.Label, StateLaunched, int(launches.Add(1))-1)
		}
		ex.Submit(task, func(res any, err error) {
			// A quarantined poison task is never retried: the executor already
			// proved that every block it lands on dies, so burning the retry
			// budget would only kill more workers.
			if err != nil && tries < d.cfg.Retries && !errors.Is(err, ErrPoisonTask) {
				tries++
				launch()
				return
			}
			final := int(launches.Load()) - 1
			if err != nil {
				d.setState(id, app.Name(), opts.Label, StateFailed, final)
				evictMemo()
			} else {
				d.setState(id, app.Name(), opts.Label, StateDone, final)
				if owned != nil {
					// The result just became a checkpoint candidate: encode it
					// into the entry and notify memo observers (e.g. the
					// service's durability journal).
					d.memoCommit(memoKey, owned, res)
				}
			}
			fut.complete(res, err)
			d.pending.Done()
		})
	}
	launch()
}

func (d *DFK) setState(id int, app, label string, s TaskState, tries int) {
	d.mu.Lock()
	d.recordStateLocked(id, s)
	ev := TaskEvent{TaskID: id, App: app, State: s, Time: time.Now(), Tries: tries, Label: label}
	metTaskTransitions.With(s.String()).Inc()
	switch s {
	case StateLaunched:
		if _, launched := d.launchAt[id]; !launched {
			d.launchAt[id] = ev.Time
			if p, ok := d.pendingAt[id]; ok {
				ev.WaitDur = ev.Time.Sub(p)
				metTaskWait.Observe(ev.WaitDur.Seconds())
			}
		}
	case StateDone, StateFailed, StateDepFail, StateMemoHit:
		if s == StateMemoHit {
			metMemoHits.Inc()
		}
		if l, ok := d.launchAt[id]; ok {
			ev.ExecDur = ev.Time.Sub(l)
			metTaskExec.Observe(ev.ExecDur.Seconds())
		} else if p, ok := d.pendingAt[id]; ok {
			// Never launched (memo hit, dep failure): the whole lifetime
			// was wait.
			ev.WaitDur = ev.Time.Sub(p)
			metTaskWait.Observe(ev.WaitDur.Seconds())
		}
		delete(d.pendingAt, id)
		delete(d.launchAt, id)
	}
	d.appendEventLocked(ev)
	hooks := d.hooks
	d.mu.Unlock()
	for _, h := range hooks {
		h.fn(ev)
	}
}

// DefaultMaxEvents is the monitoring-log retention used when
// Config.MaxEvents is 0.
const DefaultMaxEvents = 65536

// recordStateLocked moves task id to state s and keeps the per-state totals
// exact. A live task's current state is in the timing maps: launched once
// launchAt holds it, else pending while pendingAt does; a task in neither is
// new. Callers record a transition before updating those maps. Caller holds
// d.mu.
func (d *DFK) recordStateLocked(id int, s TaskState) {
	if _, ok := d.launchAt[id]; ok {
		d.counts[StateLaunched]--
	} else if _, ok := d.pendingAt[id]; ok {
		d.counts[StatePending]--
	}
	d.counts[s]++
}

// DefaultMaxLabels is the per-label index retention used when
// Config.MaxLabels is 0.
const DefaultMaxLabels = 65536

// eventLimit is the per-log retention cap (Config.MaxEvents with its
// default); <= 0 means unbounded.
func (d *DFK) eventLimit() int {
	if d.cfg.MaxEvents == 0 {
		return DefaultMaxEvents
	}
	return d.cfg.MaxEvents
}

// appendEventLocked records a labeled ev once, in its label's log, so
// EventsFor is O(label) rather than a scan; an unlabeled event is not
// retained. Each log keeps at least the newest MaxEvents of its events and
// the index at most MaxLabels labels — consumers needing unbounded logs, or
// unlabeled events, must mirror events via OnTaskEvent, whose hooks see every
// event regardless. Caller holds d.mu.
func (d *DFK) appendEventLocked(ev TaskEvent) {
	if ev.Label == "" {
		return
	}
	l := d.byLabel[ev.Label]
	if l == nil {
		maxLabels := d.cfg.MaxLabels
		if maxLabels == 0 {
			maxLabels = DefaultMaxLabels
		}
		if maxLabels > 0 && len(d.byLabel) >= maxLabels {
			d.evictLabelsLocked(maxLabels)
		}
		l = &eventLog{}
		d.byLabel[ev.Label] = l
	}
	d.eventTick++
	l.tick = d.eventTick
	l.add(ev, d.eventLimit())
}

// evictLabelsLocked drops the least-recently-active ~1/16 of the label index
// (at least one) so stragglers for long-forgotten labels cannot grow it
// forever. Evicting a batch keeps the scan rare — amortized O(1) per new
// label — instead of a full pass for every label at capacity. Caller holds
// d.mu.
func (d *DFK) evictLabelsLocked(maxLabels int) {
	batch := maxLabels / 16
	if batch < 1 {
		batch = 1
	}
	ticks := make([]uint64, 0, len(d.byLabel))
	for _, e := range d.byLabel {
		ticks = append(ticks, e.tick)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	if batch > len(ticks) {
		batch = len(ticks)
	}
	cutoff := ticks[batch-1]
	for l, e := range d.byLabel {
		if e.tick <= cutoff {
			delete(d.byLabel, l)
		}
	}
}

// DefaultMaxMemoEntries is the memoization-table retention used when
// Config.MaxMemoEntries is 0.
const DefaultMaxMemoEntries = 65536

// memoPutLocked installs e under key, which must be absent, evicting
// least-recently-used completed entries first when the table is at capacity.
// Caller holds d.mu.
func (d *DFK) memoPutLocked(key string, e *memoEntry) {
	max := d.cfg.MaxMemoEntries
	if max == 0 {
		max = DefaultMaxMemoEntries
	}
	if max > 0 && len(d.memo) >= max {
		d.evictMemoLocked(max)
	}
	d.memo[key] = e
	d.memoTouchLocked(e)
}

// memoTouchLocked marks a memo entry recently used. Caller holds d.mu.
func (d *DFK) memoTouchLocked(e *memoEntry) {
	d.memoTick++
	e.seq = d.memoTick
}

// memoResult returns the result a finished entry holds: its live value, or
// a fresh decode of its bytes, so no two hits share one value. It reports
// false — evicting e, unless something replaced it already — when the owner
// failed or the bytes do not decode; the caller's lookup then retries. The
// caller has waited for e's future, if it had one.
func (d *DFK) memoResult(key string, e *memoEntry) (any, bool) {
	d.mu.Lock()
	done, fut, raw := e.done, e.fut, e.raw
	d.mu.Unlock()
	if done {
		if fut != nil {
			res, _, _ := fut.TryResult()
			return res, true
		}
		if res, err := (ResultCodec{}).Decode(raw); err == nil {
			return res, true
		}
	}
	d.mu.Lock()
	if d.memo[key] == e {
		delete(d.memo, key)
	}
	d.mu.Unlock()
	return nil, false
}

// evictMemoLocked drops the least-recently-used ~1/16 of completed memo
// entries (at least one), so a long-lived memoizing DFK cannot grow its
// table — or its checkpoint snapshots — without bound. In-flight entries are
// never evicted (waiters coordinate through them); an evicted completed
// entry simply re-executes on its next identical submission. Batch eviction
// keeps the scan amortized O(1) per insert. Caller holds d.mu.
func (d *DFK) evictMemoLocked(max int) {
	batch := max / 16
	if batch < 1 {
		batch = 1
	}
	type cand struct {
		key string
		seq int64
	}
	cands := make([]cand, 0, len(d.memo))
	for k, e := range d.memo {
		if e.done {
			cands = append(cands, cand{key: k, seq: e.seq})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	if batch > len(cands) {
		batch = len(cands)
	}
	for _, c := range cands[:batch] {
		delete(d.memo, c.key)
	}
}

// OnTaskEvent registers fn to be called for every subsequent task event and
// returns a function that unregisters it (clients observing a shared DFK
// must detach on shutdown or they are retained for the DFK's lifetime).
// Callbacks run synchronously on the goroutine recording the event and must
// be fast and non-blocking; they must not call back into the DFK. Events for
// one task arrive in order; events for different tasks may interleave.
func (d *DFK) OnTaskEvent(fn func(TaskEvent)) (remove func()) {
	reg := &taskEventHook{fn: fn}
	d.mu.Lock()
	d.hooks = append(append([]*taskEventHook{}, d.hooks...), reg)
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		kept := make([]*taskEventHook, 0, len(d.hooks))
		for _, h := range d.hooks {
			if h != reg {
				kept = append(kept, h)
			}
		}
		d.hooks = kept
	}
}

// EventsFor returns the monitoring events recorded for one submission label,
// in append order — the per-run slice of the shared event stream. It reads
// the label's own log, so the cost is O(events for this label).
func (d *DFK) EventsFor(label string) []TaskEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.byLabel[label]
	if l == nil || len(l.events) == 0 {
		return nil
	}
	out := make([]TaskEvent, len(l.events))
	for i, r := range l.events {
		out[i] = l.event(r, label)
	}
	return out
}

// ForgetLabel drops the per-label event index for a retired submission group
// (e.g. an evicted service run), freeing its memory in a long-lived DFK.
func (d *DFK) ForgetLabel(label string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.byLabel, label)
}

// IndexStats sizes the DFK's bounded in-memory structures, for monitoring.
type IndexStats struct {
	// Labels is how many labels the per-label event index holds.
	Labels int
	// LabelEvents is the total event count across the per-label index.
	LabelEvents int
	// MemoEntries is the memoization-table size.
	MemoEntries int
	// Tasks is how many tasks are live: submitted and not yet terminal.
	Tasks int
}

// IndexStats reports the current sizes of the per-label event index and the
// memo table, and the live task count. Exposed as gauges on /metrics so
// operators can watch the bounded structures approach their caps.
func (d *DFK) IndexStats() IndexStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := IndexStats{
		Labels:      len(d.byLabel),
		MemoEntries: len(d.memo),
		Tasks:       len(d.pendingAt),
	}
	for _, l := range d.byLabel {
		st.LabelEvents += len(l.events)
	}
	return st
}

// StateCounts aggregates the current state of every task ever submitted,
// like parsl's usage summary.
func (d *DFK) StateCounts() map[TaskState]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stateCountsLocked()
}

// stateCountsLocked returns the nonzero per-state totals. Caller holds d.mu.
func (d *DFK) stateCountsLocked() map[TaskState]int {
	out := map[TaskState]int{}
	for s, n := range d.counts {
		if n > 0 {
			out[TaskState(s)] = n
		}
	}
	return out
}

// Wait blocks until every submitted task reaches a terminal state.
func (d *DFK) Wait() { d.pending.Wait() }

// Cleanup waits for outstanding tasks and shuts down all executors.
func (d *DFK) Cleanup() error {
	d.mu.Lock()
	if d.cleaned {
		d.mu.Unlock()
		return nil
	}
	d.cleaned = true
	d.mu.Unlock()
	d.pending.Wait()
	var firstErr error
	for _, ex := range d.executors {
		if err := ex.Shutdown(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// collectDeps finds futures nested anywhere in args.
func collectDeps(v any) []*AppFuture {
	var deps []*AppFuture
	seen := map[*AppFuture]bool{}
	var walk func(any)
	walk = func(x any) {
		switch t := x.(type) {
		case *AppFuture:
			if !seen[t] {
				seen[t] = true
				deps = append(deps, t)
			}
		case *DataFuture:
			if !seen[t.parent] {
				seen[t.parent] = true
				deps = append(deps, t.parent)
			}
		case Args:
			for _, vv := range t {
				walk(vv)
			}
		case map[string]any:
			for _, vv := range t {
				walk(vv)
			}
		case []any:
			for _, vv := range t {
				walk(vv)
			}
		case []File:
			// plain files carry no dependency
		}
	}
	walk(v)
	return deps
}

// resolveArgs replaces futures with their results: AppFuture → result value,
// DataFuture → File.
func resolveArgs(v any) Args {
	args, _ := resolveValue(v).(Args)
	return args
}

func resolveValue(x any) any {
	switch t := x.(type) {
	case *AppFuture:
		res, _, _ := t.TryResult()
		return res
	case *DataFuture:
		return t.file
	case Args:
		out := Args{}
		for k, vv := range t {
			out[k] = resolveValue(vv)
		}
		return out
	case map[string]any:
		out := map[string]any{}
		for k, vv := range t {
			out[k] = resolveValue(vv)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, vv := range t {
			out[i] = resolveValue(vv)
		}
		return out
	default:
		return x
	}
}

// memoHash produces a stable key for memoization.
func memoHash(app string, args Args, opts CallOpts) string {
	h := sha256.New()
	h.Write([]byte(app))
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		b, _ := json.Marshal(normalizeForHash(args[k]))
		h.Write(b)
	}
	for _, o := range opts.Outputs {
		h.Write([]byte(o.Path))
	}
	h.Write([]byte(opts.Stdout))
	h.Write([]byte(opts.Stderr))
	return hex.EncodeToString(h.Sum(nil))
}

func normalizeForHash(v any) any {
	switch t := v.(type) {
	case File:
		return t.Path
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = normalizeForHash(e)
		}
		return out
	case map[string]any:
		out := map[string]any{}
		for k, e := range t {
			out[k] = normalizeForHash(e)
		}
		return out
	default:
		return fmt.Sprint(v)
	}
}

// UsageSummary renders an end-of-run report like Parsl's usage summary:
// per-app invocation counts and the final state histogram. Counts come from
// dedicated counters maintained at Submit time, so they stay exact even
// after MaxEvents truncation discards old monitoring events.
func (d *DFK) UsageSummary() string {
	d.mu.Lock()
	submitted := d.submitted
	perApp := make(map[string]int, len(d.perApp))
	for a, n := range d.perApp {
		perApp[a] = n
	}
	finalState := map[string]int{}
	for s, n := range d.stateCountsLocked() {
		finalState[s.String()] = n
	}
	d.mu.Unlock()

	apps := make([]string, 0, len(perApp))
	for a := range perApp {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	states := make([]string, 0, len(finalState))
	for s := range finalState {
		states = append(states, s)
	}
	sort.Strings(states)

	var b strings.Builder
	b.WriteString("DFK usage summary\n")
	fmt.Fprintf(&b, "  tasks submitted: %d\n", submitted)
	for _, a := range apps {
		fmt.Fprintf(&b, "  app %-20s %d\n", a, perApp[a])
	}
	for _, s := range states {
		fmt.Fprintf(&b, "  state %-18s %d\n", s, finalState[s])
	}
	return b.String()
}
