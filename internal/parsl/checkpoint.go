package parsl

import "encoding/json"

// Memo checkpointing: the DFK's memoization table — Parsl's checkpointing
// substrate — can be exported, observed, and restored, so identical tasks
// across process restarts are memo hits instead of re-executions. A finished
// entry is held as its ResultCodec bytes, encoded once when the task
// succeeds; the commit hooks, snapshots and restores all deal in those bytes,
// and only a memo hit decodes them. Storing the bytes is the caller's job
// (see the service persistence layer).

// MemoEntry is one memoization-table entry: the content-hashed key (app name
// + canonicalized arguments) and the successful result it maps to.
type MemoEntry struct {
	// Key is the memoization hash (see memoHash).
	Key string
	// App is the app name that produced the result, for attribution.
	App string
	// Raw is the task's result in ResultCodec form. It is shared with the
	// memo table and must not be modified.
	Raw json.RawMessage
}

// memoEntry is one slot of the memoization table. While the owning task runs
// it holds the owner's future, which identical submissions wait on; such an
// entry is never evicted. When the owner succeeds the entry keeps the result
// as raw bytes and drops the future — unless the codec cannot reproduce the
// result exactly (see roundTrips), in which case the completed future stays
// as the live value that hits return, alongside any bytes for the journal.
type memoEntry struct {
	app  string
	seq  int64 // last-use tick, for LRU eviction
	fut  *AppFuture
	raw  json.RawMessage
	done bool
}

type memoHook struct {
	fn func(MemoEntry)
}

// OnMemoCommit registers fn to be called whenever a memoized task completes
// successfully with a result the codec can encode — the moment it becomes a
// durable checkpoint candidate. It returns a function that unregisters the
// hook. Callbacks run synchronously on the completing task's goroutine and
// must be fast and non-blocking; they must not call back into the DFK.
func (d *DFK) OnMemoCommit(fn func(MemoEntry)) (remove func()) {
	reg := &memoHook{fn: fn}
	d.mu.Lock()
	d.memoHooks = append(append([]*memoHook{}, d.memoHooks...), reg)
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		kept := make([]*memoHook, 0, len(d.memoHooks))
		for _, h := range d.memoHooks {
			if h != reg {
				kept = append(kept, h)
			}
		}
		d.memoHooks = kept
	}
}

// memoCommit finishes the owner's entry e with its successful result: the
// one encode of res, which the table, the hooks and later snapshots share.
func (d *DFK) memoCommit(key string, e *memoEntry, res any) {
	raw, ok := ResultCodec{}.Encode(res)
	d.mu.Lock()
	e.raw, e.done = raw, true
	if ok && roundTrips(res, false) {
		e.fut = nil
	}
	hooks := d.memoHooks
	d.mu.Unlock()
	if !ok {
		return // not checkpointable; the entry stays process-local
	}
	for _, h := range hooks {
		h.fn(MemoEntry{Key: key, App: e.app, Raw: raw})
	}
}

// MemoSnapshot exports every completed, successful memoization entry the
// codec could encode — the compacted checkpoint state. In-flight entries are
// skipped.
func (d *DFK) MemoSnapshot() []MemoEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]MemoEntry, 0, len(d.memo))
	for key, e := range d.memo {
		if e.raw != nil {
			out = append(out, MemoEntry{Key: key, App: e.app, Raw: e.raw})
		}
	}
	return out
}

// RestoreMemo loads checkpointed entries into the memoization table, so
// subsequent identical submissions are memo hits (StateMemoHit) without
// re-execution. The bytes are installed as they are and decoded only on a
// hit; an entry that then fails to decode is dropped and its task
// re-executes. Entries whose key is already present are skipped (live
// results win). It returns how many entries were installed. Restoring into a
// DFK with memoization disabled is a no-op for lookups but harmless.
func (d *DFK) RestoreMemo(entries []MemoEntry) int {
	restored := 0
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range entries {
		if e.Key == "" || len(e.Raw) == 0 {
			continue
		}
		if _, exists := d.memo[e.Key]; exists {
			continue
		}
		d.memoPutLocked(e.Key, &memoEntry{app: e.App, raw: e.Raw, done: true})
		restored++
	}
	return restored
}
