package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

type kv struct {
	K string `json:"k"`
	V int    `json:"v"`
}

func replayAll(t *testing.T, l *Log) (snap json.RawMessage, recs []Record) {
	t.Helper()
	err := l.Replay(
		func(data json.RawMessage) error { snap = data; return nil },
		func(r Record) error { recs = append(recs, r); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	return snap, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append("set", kv{K: fmt.Sprintf("key%d", i), V: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, recs := replayAll(t, l2)
	if snap != nil {
		t.Errorf("unexpected snapshot before any compaction: %s", snap)
	}
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	var v kv
	if err := json.Unmarshal(recs[7].Data, &v); err != nil {
		t.Fatal(err)
	}
	if recs[7].Kind != "set" || v.K != "key7" || v.V != 7 {
		t.Errorf("record 7 = %q %+v", recs[7].Kind, v)
	}
	if st := l2.Stats(); st.JournalRecords != 10 || st.JournalBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAppendWritesMarshalledRecord pins the journal line format: Append
// splices the encoded payload into the record instead of marshalling it a
// second time, and the bytes must still be exactly json.Marshal(Record{...})
// plus a newline — HTML escaping, non-ASCII text and nested raw JSON included.
func TestAppendWritesMarshalledRecord(t *testing.T) {
	type nested struct {
		Text string          `json:"text"`
		Raw  json.RawMessage `json:"raw,omitempty"`
		N    []int           `json:"n,omitempty"`
	}
	cases := []struct {
		kind string
		v    any
	}{
		{"submit", kv{K: "a<b & c>", V: 1}},
		{"run", nested{Text: "naïve — ü 日本 \u2028 \"quoted\"\n", N: []int{1, 2}}},
		{"memo", nested{Raw: json.RawMessage(` { "x" : [1, 2, {"y":"<&>"}] , "z":"é" } `)}},
		{"k<&>é\"", map[string]any{"b": []any{"<", nil, 1.5}, "a": true}},
		{"", nil},
		{"str", "plain <string> & \u00e9"},
		{"raw", json.RawMessage(`[ 1 ,"<>" ]`)},
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, c := range cases {
		if err := l.Append(c.kind, c.v); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(Record{Kind: c.kind, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("journal bytes differ:\n got %s\nwant %s", got, want)
	}
}

func TestCompactSnapshotsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	state := map[string]int{}
	for i := 0; i < 5; i++ {
		state[fmt.Sprintf("key%d", i)] = i
		if err := l.Append("set", kv{K: fmt.Sprintf("key%d", i), V: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(func() (any, error) { return state, nil }); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.JournalRecords != 0 || st.JournalBytes != 0 || st.LastSnapshot.IsZero() || st.Compactions != 1 {
		t.Errorf("post-compaction stats = %+v", st)
	}
	// Records after the snapshot land in the fresh journal.
	if err := l.Append("set", kv{K: "after", V: 99}); err != nil {
		t.Fatal(err)
	}
	snap, recs := replayAll(t, l)
	var got map[string]int
	if err := json.Unmarshal(snap, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got["key3"] != 3 {
		t.Errorf("snapshot = %v", got)
	}
	if len(recs) != 1 || recs[0].Kind != "set" {
		t.Fatalf("post-snapshot records = %+v", recs)
	}
}

func TestTornTailIsRepaired(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append("set", kv{K: "k", V: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a record, no newline.
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"set","d":{"k":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, recs := replayAll(t, l2)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(recs))
	}
	// A tail that is valid JSON but not a Record (a partially-synced
	// fragment) must be truncated at Open too, not poison later replays.
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.OpenFile(filepath.Join(dir, segName(1)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("5\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, recs = replayAll(t, l2)
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after non-record tail, want 3", len(recs))
	}
	// The repaired journal accepts new appends cleanly.
	if err := l2.Append("set", kv{K: "fresh", V: 4}); err != nil {
		t.Fatal(err)
	}
	_, recs = replayAll(t, l2)
	if len(recs) != 4 {
		t.Fatalf("after repair+append: %d records, want 4", len(recs))
	}
}

func TestAppendsSurviveWithoutClose(t *testing.T) {
	// A kill -9 never calls Close; everything Append returned for must still
	// replay (writes reach the OS synchronously; only fsync is batched).
	// The live directory is flock'd, so — like the kill -9 recovery test at
	// the service layer — the crash image is a copy taken without Close.
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: time.Hour}) // batch "never"
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		if err := l.Append("set", kv{V: i}); err != nil {
			t.Fatal(err)
		}
	}
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, err := Open(crash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, recs := replayAll(t, l2); len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
}

func TestOpenRefusesLockedDirectory(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a live directory succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock releases with Close.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	l2.Close()
}

func TestReplayOrdersAcrossLeftoverSegments(t *testing.T) {
	// A crash between segment rotation and snapshot durability leaves
	// multiple segments; replay must deliver them oldest-first.
	dir := t.TempDir()
	w1 := `{"k":"set","d":{"k":"a","v":1}}` + "\n" + `{"k":"set","d":{"k":"b","v":2}}` + "\n"
	w2 := `{"k":"set","d":{"k":"c","v":3}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(w1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), []byte(w2), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, recs := replayAll(t, l)
	var keys []string
	for _, r := range recs {
		var v kv
		if err := json.Unmarshal(r.Data, &v); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, v.K)
	}
	if want := []string{"a", "b", "c"}; !equalStrings(keys, want) {
		t.Fatalf("replay order = %v, want %v", keys, want)
	}
	// New appends land in the highest segment; a compaction retires all the
	// leftovers.
	if err := l.Append("set", kv{K: "d", V: 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(func() (any, error) { return "state", nil }); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("segments after compaction = %v, want just the fresh one", segs)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append("set", kv{V: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, recs := replayAll(t, l2); len(recs) != goroutines*per {
		t.Fatalf("replayed %d records, want %d", len(recs), goroutines*per)
	}
}

func TestCompactHoldsAppendGate(t *testing.T) {
	// Appends racing a compaction must land in the journal *after* the
	// snapshot, never be lost between state capture and truncation.
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// The appender marks each id applied *before* appending it, so at any
	// build call the captured count covers every id whose append completed.
	// Replay may then see an id both in the snapshot and the journal
	// (records are idempotent by contract) but must never lose one.
	const total = 220
	var mu sync.Mutex
	applied := 0
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			mu.Lock()
			applied++
			id := applied
			mu.Unlock()
			if err := l.Append("inc", kv{V: id}); err != nil {
				t.Error(err)
				return
			}
		}
	}
	appendN(20)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); appendN(total - 20) }()
	for i := 0; i < 5; i++ {
		err := l.Compact(func() (any, error) {
			mu.Lock()
			defer mu.Unlock()
			return applied, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	var base int
	journal := map[int]bool{}
	err = l.Replay(
		func(data json.RawMessage) error { return json.Unmarshal(data, &base) },
		func(r Record) error {
			var v kv
			if err := json.Unmarshal(r.Data, &v); err != nil {
				return err
			}
			journal[v.V] = true
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= total; id++ {
		if id > base && !journal[id] {
			t.Fatalf("record %d lost: snapshot covers <=%d and journal has %d entries", id, base, len(journal))
		}
	}
}

func TestCloseThenAppendFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("set", kv{}); err == nil {
		t.Error("Append after Close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestEverySyncOption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append("set", kv{V: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, recs := replayAll(t, l2); len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
}
