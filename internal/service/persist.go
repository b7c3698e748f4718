package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/parsl"
	"repro/internal/persist"
)

// persister is the service's durability glue over a persist.Log. It journals
// three record kinds as they happen —
//
//	submit  {run snapshot + CWL source + inputs}   at Submit, pre-enqueue
//	reject  {id}                                   when the scheduler refuses
//	run     {run snapshot}                         on running/terminal moves
//	memo    {key, app, encoded result}             on DFK memo commits
//
// — and periodically compacts them into a snapshot of the full service state
// (every retained run, payloads for non-terminal ones, the DFK memo table,
// and the run-ID sequence). Payloads live in the run store's records, never
// here: a snapshot reads them from the store, and replay hands each back to
// the store with its run. On startup, replay rebuilds the store, restores
// the memo table, and re-enqueues runs that were queued or running at crash
// time; their re-execution is cheap because step results hit the restored
// memo table.
//
// The encoded result is the parsl.ResultCodec form the DFK memo table itself
// holds: a memo record, a snapshot's memo section and the table share those
// bytes, and nothing here encodes or decodes a task result.
//
// The journal is sharded (persist.ShardedLog): records are routed to one of
// N independent WALs by their key — run records by run ID, memo records by
// memo key — so concurrent runs' fsync batches stop serializing on a single
// writer. Per-run record order is preserved (one run, one shard); the global
// run order is recovered at replay by sorting on the run-ID sequence, and
// every shard's snapshot carries the sequence high-water mark.
//
// Record application is idempotent (replay tolerates records already
// reflected in the snapshot), which is what makes the persist.Log's
// crash-windows safe.
type persister struct {
	log *persist.ShardedLog

	mu      sync.Mutex
	lastErr error // most recent journal failure, for /healthz

	// Restore counters, reported by /healthz.
	restoredRuns int // terminal runs recovered as history
	resubmitted  int // interrupted runs re-enqueued
	restoredMemo int // memo entries restored into the DFK

	stop       chan struct{}
	done       chan struct{}
	closeOnce  sync.Once
	removeMemo func() // detaches the DFK memo hook
}

// runFields is RunSnapshot under the journal's field tags, so a conversion
// copies a run into or out of its journal record — the outputs bytes shared,
// not re-encoded or decoded. Restored describes the process that replayed
// the record and is never journaled.
type runFields struct {
	ID           string          `json:"id"`
	Name         string          `json:"name,omitempty"`
	State        RunState        `json:"state"`
	Class        string          `json:"class,omitempty"`
	DocHash      string          `json:"docHash,omitempty"`
	Priority     int             `json:"priority,omitempty"`
	CacheHit     bool            `json:"cacheHit,omitempty"`
	Created      time.Time       `json:"createdAt"`
	Started      *time.Time      `json:"startedAt,omitempty"`
	Finished     *time.Time      `json:"finishedAt,omitempty"`
	Outputs      json.RawMessage `json:"outputs,omitempty"`
	Error        string          `json:"error,omitempty"`
	Provider     string          `json:"provider,omitempty"`
	Tenant       string          `json:"tenant,omitempty"`
	ResultCached bool            `json:"resultCached,omitempty"`
	Restored     bool            `json:"-"`
}

// runWire is the journal/snapshot form of one run: its fields plus, for
// non-terminal runs, the payload needed to re-execute it.
type runWire struct {
	runFields
	Source string          `json:"source,omitempty"`
	Inputs json.RawMessage `json:"inputs,omitempty"`
}

type rejectWire struct {
	ID string `json:"id"`
}

type memoWire struct {
	Key   string          `json:"key"`
	App   string          `json:"app"`
	Value json.RawMessage `json:"value"`
}

type snapshotWire struct {
	Seq  int64      `json:"seq"`
	Runs []runWire  `json:"runs"`
	Memo []memoWire `json:"memo"`
}

func toWire(snap RunSnapshot) runWire { return runWire{runFields: runFields(snap)} }

func newPersister(log *persist.ShardedLog) *persister {
	return &persister{
		log:  log,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// --- journaling (called by the Service at each lifecycle transition) ---

// runSubmitted journals a new submission with the source and canonical
// inputs its work holds. Its error is returned (unlike the later
// transitions) so Submit can refuse to ACK a run the journal never recorded
// — a durable service must not hand out IDs it would forget.
func (p *persister) runSubmitted(snap RunSnapshot, work *pendingRun) error {
	w := toWire(snap)
	w.Source, w.Inputs = work.source, work.inputsJSON
	return p.append(snap.ID, "submit", w)
}

func (p *persister) runRejected(id string) {
	p.append(id, "reject", rejectWire{ID: id})
}

// runChanged journals a running or terminal transition.
func (p *persister) runChanged(snap RunSnapshot) {
	p.append(snap.ID, "run", toWire(snap))
}

func (p *persister) memoCommitted(e parsl.MemoEntry) {
	p.append(e.Key, "memo", memoWire{Key: e.Key, App: e.App, Value: e.Raw})
}

// append journals one record on the shard owning key (run records key on
// their run ID, memo records on their memo key, so per-run and per-result
// ordering survive sharding).
func (p *persister) append(key, kind string, v any) error {
	// Transition-record failures must not take down run execution (callers
	// other than runSubmitted ignore the return); the error is retained and
	// surfaced through the /healthz persistence section.
	err := p.log.Append(key, kind, v)
	if err != nil {
		p.mu.Lock()
		p.lastErr = err
		p.mu.Unlock()
	}
	return err
}

// --- replay (startup) ---

// replayState is the reconstructed service state: runs in creation order,
// memo entries, and the highest run sequence seen.
type replayState struct {
	order []string
	runs  map[string]*runWire
	memo  []memoWire
	seq   int64
}

func (p *persister) replay() (*replayState, error) {
	st := &replayState{runs: map[string]*runWire{}}
	add := func(w runWire) {
		if _, ok := st.runs[w.ID]; !ok {
			st.order = append(st.order, w.ID)
		}
		cp := w
		st.runs[w.ID] = &cp
	}
	err := p.log.Replay(
		func(_ int, data json.RawMessage) error {
			var snap snapshotWire
			if err := json.Unmarshal(data, &snap); err != nil {
				return fmt.Errorf("state snapshot: %w", err)
			}
			// Every shard snapshot stores the global sequence high-water mark
			// as of its compaction; the max across shards wins.
			if snap.Seq > st.seq {
				st.seq = snap.Seq
			}
			for _, w := range snap.Runs {
				add(w)
			}
			st.memo = append(st.memo, snap.Memo...)
			return nil
		},
		func(_ int, rec persist.Record) error {
			switch rec.Kind {
			case "submit":
				var w runWire
				if err := json.Unmarshal(rec.Data, &w); err != nil {
					return err
				}
				if prev, ok := st.runs[w.ID]; ok {
					// Already known (snapshot + journal overlap): keep the
					// later lifecycle state, refresh the payload.
					prev.Source, prev.Inputs = w.Source, w.Inputs
					return nil
				}
				add(w)
			case "run":
				var w runWire
				if err := json.Unmarshal(rec.Data, &w); err != nil {
					return err
				}
				prev, ok := st.runs[w.ID]
				if !ok {
					// A transition for a run we never saw submitted (a rare
					// submit/cancel race at crash time): record it as-is so
					// the ID stays burned.
					add(w)
					return nil
				}
				src, in := prev.Source, prev.Inputs
				*prev = w
				prev.Source, prev.Inputs = src, in
			case "reject":
				var r rejectWire
				if err := json.Unmarshal(rec.Data, &r); err != nil {
					return err
				}
				delete(st.runs, r.ID)
			case "memo":
				var m memoWire
				if err := json.Unmarshal(rec.Data, &m); err != nil {
					return err
				}
				st.memo = append(st.memo, m)
			}
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	// Compact out rejected runs, then restore global creation order: shards
	// replay independently, so cross-shard interleaving is arbitrary until
	// sorted by the run-ID sequence, parsed once per run.
	type seqID struct {
		n  int64
		id string
	}
	kept := make([]seqID, 0, len(st.order))
	for _, id := range st.order {
		if _, ok := st.runs[id]; ok {
			kept = append(kept, seqID{parseRunID(id), id})
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].n < kept[j].n })
	st.order = st.order[:0]
	for _, k := range kept {
		st.order = append(st.order, k.id)
		st.seq = max(st.seq, k.n)
	}
	return st, nil
}

// parseRunID returns the sequence number of a "run-NNNNNN" ID, or 0.
func parseRunID(id string) int64 {
	digits, ok := strings.CutPrefix(id, "run-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// restoreMemo installs checkpointed memo entries into the DFK as the bytes
// they were stored as; the DFK decodes one only when it is hit.
func (p *persister) restoreMemo(dfk *parsl.DFK, wires []memoWire) {
	entries := make([]parsl.MemoEntry, len(wires))
	for i, w := range wires {
		entries[i] = parsl.MemoEntry{Key: w.Key, App: w.App, Raw: w.Value}
	}
	p.restoredMemo = dfk.RestoreMemo(entries)
}

// --- snapshots ---

// snapshot compacts every journal shard into a fresh state snapshot. Each
// shard's build runs under that shard's append gate, so no transition
// journaled before its compaction can be lost by the truncation; each shard
// snapshots only the runs and memo entries its key routing owns, plus the
// global run-ID sequence high-water mark (replay takes the max).
func (p *persister) snapshot(s *Service) error {
	return p.log.Compact(func(shard int) (any, error) {
		snap := snapshotWire{
			Seq:  runSeq.Load(),
			Runs: s.store.journalRuns(func(id string) bool { return p.log.ShardOf(id) == shard }),
		}
		for _, e := range s.dfk.MemoSnapshot() {
			if p.log.ShardOf(e.Key) == shard {
				snap.Memo = append(snap.Memo, memoWire{Key: e.Key, App: e.App, Value: e.Raw})
			}
		}
		return snap, nil
	})
}

// checkpointLoop writes periodic snapshots until stopped.
func (p *persister) checkpointLoop(s *Service, period time.Duration) {
	defer close(p.done)
	if period <= 0 {
		<-p.stop
		return
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			_ = p.snapshot(s)
		}
	}
}

// close stops the checkpoint loop, writes the shutdown snapshot, and closes
// the log. It is idempotent.
func (p *persister) close(s *Service) error {
	var err error
	p.closeOnce.Do(func() {
		if p.removeMemo != nil {
			p.removeMemo()
		}
		close(p.stop)
		<-p.done
		err = p.snapshot(s)
		if cerr := p.log.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// stats summarizes durability state for /healthz.
func (p *persister) stats() *PersistStats {
	ls := p.log.Stats()
	st := &PersistStats{
		Dir:             ls.Dir,
		Shards:          p.log.Shards(),
		JournalBytes:    ls.JournalBytes,
		JournalRecords:  ls.JournalRecords,
		SnapshotBytes:   ls.SnapshotBytes,
		RestoredRuns:    p.restoredRuns,
		ResubmittedRuns: p.resubmitted,
		RestoredMemo:    p.restoredMemo,
	}
	if !ls.LastSnapshot.IsZero() {
		t := ls.LastSnapshot
		st.LastSnapshot = &t
	}
	p.mu.Lock()
	if p.lastErr != nil {
		st.Error = p.lastErr.Error()
	}
	p.mu.Unlock()
	return st
}

// PersistStats is the durability section of the service's /healthz stats.
type PersistStats struct {
	// Dir is the data directory backing the journal and snapshots.
	Dir string `json:"dir"`
	// Shards is the WAL shard count (1 for a legacy unsharded directory).
	Shards int `json:"shards"`
	// JournalBytes/JournalRecords describe the current write-ahead log.
	JournalBytes   int64 `json:"journalBytes"`
	JournalRecords int64 `json:"journalRecords"`
	// SnapshotBytes is the size of the last compacted snapshot.
	SnapshotBytes int64 `json:"snapshotBytes"`
	// LastSnapshot is when the last snapshot was written.
	LastSnapshot *time.Time `json:"lastSnapshot,omitempty"`
	// RestoredRuns counts terminal runs recovered as history at startup.
	RestoredRuns int `json:"restoredRuns"`
	// ResubmittedRuns counts interrupted runs re-enqueued at startup.
	ResubmittedRuns int `json:"resubmittedRuns"`
	// RestoredMemo counts checkpointed results loaded into the memo table.
	RestoredMemo int `json:"restoredMemoEntries"`
	// Error is the most recent journal failure ("" when healthy). A non-empty
	// value means some transitions may be missing from the journal.
	Error string `json:"error,omitempty"`
}
