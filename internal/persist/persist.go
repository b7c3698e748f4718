// Package persist is the durability layer under the Parsl+CWL service: an
// append-only, fsync-batched JSON-lines write-ahead log paired with periodic
// compacted snapshots, in pure Go with no external dependencies.
//
// A Log owns one directory holding:
//
//	snapshot.json   — the most recent compacted state (atomic tmp+rename)
//	wal-NNNNNN.jsonl — numbered journal segments; the highest is active
//	LOCK            — flock'd for the Log's lifetime (single-writer guard)
//
// Recovery is Replay: the snapshot (if any) is delivered first, then every
// journal segment's records in order. Appends reach the OS before Append
// returns (they survive a process kill) and are fsynced in batches
// (FsyncInterval), so one fsync amortizes over many records; an OS crash can
// lose at most the records inside the current batch window.
//
// Compact rotates the journal to a fresh segment under the append gate — a
// cheap in-memory step — then writes the snapshot (marshal, write, fsync,
// rename) outside the gate, so appends never stall behind snapshot I/O. Old
// segments are deleted only after the snapshot is durable.
//
// Crash safety:
//
//   - A torn final line of the active segment (the process died mid-write)
//     is detected at Open and truncated away; everything before it replays.
//     A mid-file read error is NOT treated as a torn tail — Open fails
//     rather than truncating committed records.
//   - A crash between segment rotation and snapshot durability leaves the
//     old snapshot plus all segments: a complete history. A crash after the
//     snapshot rename but before old segments are deleted replays records
//     already reflected in the snapshot.
//   - Two processes cannot share a directory: Open takes a non-blocking
//     flock on LOCK (released automatically if the process dies).
//
// Record application must therefore be idempotent: Replay may deliver
// records that the snapshot already reflects.
package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	snapshotFile = "snapshot.json"
	lockFile     = "LOCK"
	segPrefix    = "wal-"
	segSuffix    = ".jsonl"
)

func segName(n int64) string { return fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix) }

// DefaultFsyncInterval is the fsync batching window used when
// Options.FsyncInterval is zero.
const DefaultFsyncInterval = 25 * time.Millisecond

// Record is one journal entry: a kind tag plus an opaque payload.
type Record struct {
	// Kind routes the record to its handler during Replay.
	Kind string `json:"k"`
	// Data is the record payload, unmarshalled by the handler.
	Data json.RawMessage `json:"d,omitempty"`
}

// Options tunes a Log.
type Options struct {
	// FsyncInterval is the batching window for journal fsyncs: appended
	// records reach the OS immediately (they survive a process kill) and the
	// disk within this interval (they survive an OS crash). 0 selects
	// DefaultFsyncInterval; negative fsyncs on every append.
	FsyncInterval time.Duration
	// SyncHook replaces the journal fsync call (fault injection: the chaos
	// harness uses it to simulate disk-sync failures and verify they surface
	// as append errors instead of silent data loss). Nil uses File.Sync.
	SyncHook func(f *os.File) error
}

// Stats is a point-in-time durability summary, served by the service's
// /healthz endpoint.
type Stats struct {
	// Dir is the data directory.
	Dir string `json:"dir"`
	// JournalBytes is the total size of all live journal segments.
	JournalBytes int64 `json:"journalBytes"`
	// JournalRecords counts records in the live journal (since the last
	// completed compaction), including records recovered at Open.
	JournalRecords int64 `json:"journalRecords"`
	// AppendedRecords counts records appended by this process.
	AppendedRecords int64 `json:"appendedRecords"`
	// LastSnapshot is when the current snapshot was written (zero when no
	// snapshot exists yet).
	LastSnapshot time.Time `json:"lastSnapshot,omitempty"`
	// SnapshotBytes is the size of the current snapshot file.
	SnapshotBytes int64 `json:"snapshotBytes"`
	// Compactions counts snapshots written by this process.
	Compactions int64 `json:"compactions"`
}

// Log is an append-only journal plus snapshot pair rooted in one directory.
// All methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options
	lock *os.File // flock'd LOCK file

	// compactMu serializes whole compactions (the multi-phase rotate →
	// snapshot → delete sequence), independent of the append gate mu.
	compactMu sync.Mutex

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	activeSeg int64 // number of the active (highest) segment
	dirty     bool  // bytes in f not yet fsynced
	closed    bool
	stats     Stats
	flushErr  error // first background flush failure, surfaced on Append

	stop chan struct{}
	done chan struct{}
}

// snapshotEnvelope wraps the caller's snapshot state with the write time.
type snapshotEnvelope struct {
	Time time.Time       `json:"time"`
	Data json.RawMessage `json:"data"`
}

// Open creates or reopens the log rooted at dir, taking an exclusive flock
// so a second process cannot corrupt the journal. A torn trailing line of
// the active segment from a previous crash is truncated away. The returned
// Log has a background fsync loop running; Close stops it.
func Open(dir string, opts Options) (*Log, error) {
	if opts.FsyncInterval == 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Log, error) {
		lock.Close()
		return nil, err
	}

	segs, err := listSegments(dir)
	if err != nil {
		return fail(err)
	}
	if len(segs) == 0 {
		segs = []int64{1}
	}
	active := segs[len(segs)-1]

	// Non-active segments were settled (synced) before rotation, so they
	// must be fully valid; only the active segment can have a torn tail.
	var oldBytes, oldRecs int64
	for _, n := range segs[:len(segs)-1] {
		recs, bytes, torn, err := scanSegment(filepath.Join(dir, segName(n)))
		if err != nil {
			return fail(err)
		}
		if torn {
			return fail(fmt.Errorf("persist: settled segment %s has a torn tail", segName(n)))
		}
		oldBytes += bytes
		oldRecs += recs
	}
	activePath := filepath.Join(dir, segName(active))
	records, goodBytes, _, err := scanSegment(activePath)
	if err != nil {
		return fail(err)
	}
	f, err := os.OpenFile(activePath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fail(fmt.Errorf("persist: %w", err))
	}
	// Drop a torn trailing record (crash mid-write) before appending.
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return fail(fmt.Errorf("persist: repairing journal tail: %w", err))
	}
	if _, err := f.Seek(goodBytes, io.SeekStart); err != nil {
		f.Close()
		return fail(fmt.Errorf("persist: %w", err))
	}
	l := &Log{
		dir:       dir,
		opts:      opts,
		lock:      lock,
		f:         f,
		w:         bufio.NewWriterSize(f, 1<<16),
		activeSeg: active,
		stats: Stats{
			Dir:            dir,
			JournalBytes:   oldBytes + goodBytes,
			JournalRecords: oldRecs + records,
		},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if st, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
		l.stats.SnapshotBytes = st.Size()
		l.stats.LastSnapshot = st.ModTime()
	}
	go l.flushLoop()
	return l, nil
}

// acquireLock flocks dir/LOCK non-blockingly; the kernel releases the lock
// automatically when the process dies, so a kill -9 never leaves the
// directory stuck.
func acquireLock(dir string) (*os.File, error) {
	lf, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("persist: data directory %s is locked by another process", dir)
		}
		return nil, fmt.Errorf("persist: locking %s: %w", dir, err)
	}
	return lf, nil
}

// listSegments returns the journal segment numbers in dir, ascending.
func listSegments(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var segs []int64
	for _, e := range entries {
		name := e.Name()
		var n int64
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &n); err == nil && segName(n) == name {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// scanSegment validates a segment: it returns the record count and byte
// length of the valid prefix, and whether a torn/non-record tail follows it.
// A line must decode into a tagged Record — merely being valid JSON (a
// partially-synced fragment can be) does not make it replayable. Read errors
// other than a clean EOF are returned, never treated as a torn tail: a
// transient I/O failure must not cause committed records to be truncated.
func scanSegment(path string) (records, goodBytes int64, torn bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var offset int64
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == io.EOF {
			// A clean end (len==0) or a final line without its newline: the
			// latter is the torn-tail case truncation repairs.
			return records, goodBytes, len(line) > 0, nil
		}
		if rerr != nil {
			return 0, 0, false, fmt.Errorf("persist: reading %s: %w", path, rerr)
		}
		offset += int64(len(line))
		var rec Record
		if uerr := json.Unmarshal(bytes.TrimSpace(line), &rec); uerr != nil || rec.Kind == "" {
			return records, goodBytes, true, nil
		}
		records++
		goodBytes = offset
	}
}

// Replay delivers the current snapshot (when one exists) and then every
// journal record across all segments, in order. It must be called before the
// first Append so the journal read does not race buffered writes. Handler
// errors abort the replay; so do journal read errors and corrupt records —
// recovery never silently truncates.
func (l *Log) Replay(snapshot func(data json.RawMessage) error, record func(Record) error) error {
	snapPath := filepath.Join(l.dir, snapshotFile)
	if data, err := os.ReadFile(snapPath); err == nil {
		var env snapshotEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("persist: snapshot: %w", err)
		}
		if snapshot != nil {
			if err := snapshot(env.Data); err != nil {
				return err
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: %w", err)
	}

	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if err := l.replaySegment(filepath.Join(l.dir, segName(n)), record); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(path string, record func(Record) error) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 256<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// Open truncates any non-record tail before appends resume, so a
			// malformed line mid-replay means real corruption — fail loudly
			// rather than silently dropping the rest of the journal.
			return fmt.Errorf("persist: corrupt journal record in %s: %w", path, err)
		}
		if record != nil {
			if err := record(rec); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		// An oversized line or read failure must surface as a failed
		// recovery, not a silently truncated one.
		return fmt.Errorf("persist: reading %s: %w", path, err)
	}
	return nil
}

// Append marshals v and appends it to the journal as one record. The record
// reaches the OS before Append returns (it survives a process kill); it
// reaches the disk within FsyncInterval (batched fsync).
func (l *Log) Append(kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("persist: encoding %q record: %w", kind, err)
	}
	line := encodeRecord(kind, data)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("persist: log is closed")
	}
	if l.flushErr != nil {
		return l.flushErr
	}
	if _, err := l.w.Write(line); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// Push to the OS now: buffered bytes die with the process, written bytes
	// survive a kill -9. Only the disk sync is batched.
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.dirty = true
	l.stats.JournalBytes += int64(len(line))
	l.stats.JournalRecords++
	l.stats.AppendedRecords++
	metAppends.Inc()
	if l.opts.FsyncInterval < 0 {
		return l.syncLocked()
	}
	return nil
}

// encodeRecord writes the journal line for Record{kind, data} plus a newline.
// data comes from json.Marshal, so it is already compact and HTML-escaped:
// splicing it in yields the bytes json.Marshal(Record{...}) would, without
// validating and compacting the payload a second time.
func encodeRecord(kind string, data []byte) []byte {
	k, _ := json.Marshal(kind) // a string always encodes
	line := make([]byte, 0, len(`{"k":,"d":}`)+len(k)+len(data)+1)
	line = append(line, `{"k":`...)
	line = append(line, k...)
	line = append(line, `,"d":`...)
	line = append(line, data...)
	return append(line, "}\n"...)
}

// Sync forces any pending journal bytes to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty || l.closed {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	sync := l.opts.SyncHook
	if sync == nil {
		sync = func(f *os.File) error { return f.Sync() }
	}
	if err := sync(l.f); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	l.dirty = false
	metFsyncBatches.Inc()
	return nil
}

func (l *Log) flushLoop() {
	defer close(l.done)
	if l.opts.FsyncInterval < 0 {
		// Every Append syncs inline; nothing to batch.
		<-l.stop
		return
	}
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if err := l.syncLocked(); err != nil && l.flushErr == nil {
				l.flushErr = err
			}
			l.mu.Unlock()
		}
	}
}

// Compact writes a fresh snapshot and retires the journal segments it
// covers. The append gate is held only for the cheap phase — settling the
// active segment, rotating to a new one, and calling build to capture the
// state — so appends are never blocked behind snapshot marshaling or disk
// I/O. build must not call back into this Log.
//
// Because build runs under the gate immediately after rotation, the state it
// captures covers every record in the retired segments; records appended
// after rotation land in the new segment and may additionally be reflected
// in the state — which is why Replay requires idempotent records. If the
// snapshot write fails (or the process crashes mid-compaction), the retired
// segments are still on disk and recovery replays them.
func (l *Log) Compact(build func() (any, error)) error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	// Phase 1, under the append gate: settle, rotate, capture.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("persist: log is closed")
	}
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	retired, err := listSegments(l.dir)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	newSeg := l.activeSeg + 1
	nf, err := os.OpenFile(filepath.Join(l.dir, segName(newSeg)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		l.mu.Unlock()
		return fmt.Errorf("persist: rotating journal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		nf.Close()
		l.mu.Unlock()
		return fmt.Errorf("persist: %w", err)
	}
	l.f = nf
	l.w.Reset(nf)
	l.dirty = false
	l.activeSeg = newSeg
	// Everything journaled so far now lives in the retired segments.
	retiredBytes := l.stats.JournalBytes
	retiredRecs := l.stats.JournalRecords
	state, buildErr := build()
	l.mu.Unlock()
	if buildErr != nil {
		return fmt.Errorf("persist: building snapshot: %w", buildErr)
	}

	// Phase 2, off the gate: marshal and durably write the snapshot.
	data, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	now := time.Now()
	env, err := json.Marshal(snapshotEnvelope{Time: now, Data: data})
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	snapPath := filepath.Join(l.dir, snapshotFile)
	tmp := snapPath + ".tmp"
	if err := writeFileSync(tmp, env); err != nil {
		return err
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	syncDir(l.dir)

	// Phase 3: the snapshot owns the retired segments' state; delete them.
	for _, n := range retired {
		_ = os.Remove(filepath.Join(l.dir, segName(n)))
	}

	l.mu.Lock()
	l.stats.JournalBytes -= retiredBytes
	if l.stats.JournalBytes < 0 {
		l.stats.JournalBytes = 0
	}
	l.stats.JournalRecords -= retiredRecs
	if l.stats.JournalRecords < 0 {
		l.stats.JournalRecords = 0
	}
	l.stats.SnapshotBytes = int64(len(env))
	l.stats.LastSnapshot = now
	l.stats.Compactions++
	metCompactions.Inc()
	l.mu.Unlock()
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable. Errors are
// ignored: some filesystems reject directory fsync and the rename is still
// atomic on crash-consistent filesystems.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Stats returns a copy of the current durability counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close flushes and fsyncs the journal, stops the background fsync loop,
// closes the file, and releases the directory lock. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.lock != nil {
		// Closing the fd releases the flock.
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
