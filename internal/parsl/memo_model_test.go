package parsl

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/yamlx"
)

// memoModelResult is the result the model app returns for key k. The shapes
// cycle through what the memo table must handle: an output object and a list
// (held as codec bytes), a File, a Go int (encodable but widened to int64 by
// the codec, so kept live), and a struct the codec cannot encode (kept live,
// never checkpointed).
func memoModelResult(k int) any {
	switch k % 5 {
	case 0:
		return yamlx.MapOf(
			"out", yamlx.MapOf("class", "File", "path", fmt.Sprintf("/work/%d/out.txt", k), "size", int64(k)),
			"tags", []any{"a", int64(k)},
		)
	case 1:
		return k
	case 2:
		return []any{int64(k), fmt.Sprint(k), nil}
	case 3:
		return NewFile(fmt.Sprintf("/work/%d", k))
	default:
		return struct{ K int }{k}
	}
}

// memoModel is the reference memo table: the completed keys in LRU order
// (least recent first) and, per key, whether its entry came from a restore
// (and so yields what the codec decodes rather than the live value).
type memoModel struct {
	cap      int
	lru      []int
	restored map[int]bool
}

func (m *memoModel) has(k int) bool {
	for _, x := range m.lru {
		if x == k {
			return true
		}
	}
	return false
}

func (m *memoModel) touch(k int) {
	for i, x := range m.lru {
		if x == k {
			m.lru = append(m.lru[:i], m.lru[i+1:]...)
			break
		}
	}
	m.lru = append(m.lru, k)
}

// own models a new owner taking an entry: the least recently used completed
// entry is evicted first when the table is full (a cap of 8 evicts one entry
// at a time).
func (m *memoModel) own() {
	if len(m.lru) >= m.cap {
		delete(m.restored, m.lru[0])
		m.lru = m.lru[1:]
	}
}

// insert records k's owner succeeding: k is the newest entry.
func (m *memoModel) insert(k int) {
	m.lru = append(m.lru, k)
	delete(m.restored, k)
}

// want is the result a hit on k must equal.
func (m *memoModel) want(k int) any {
	v := memoModelResult(k)
	if n, ok := v.(int); ok && m.restored[k] {
		return int64(n)
	}
	return v
}

// TestMemoModel drives a memoizing DFK capped at 8 entries with seeded
// random steps — a group of concurrent identical submissions, whose owner
// may fail once, or a snapshot restored into a fresh DFK — and checks it
// against memoModel after every step: which submissions execute, that every
// hit is reflect.DeepEqual to the owner's result with the same Go types and
// never shares its map, which entries the table and its snapshot hold, and
// that snapshot bytes are the codec's encoding of each result.
func TestMemoModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkMemoModel(t, seed, 150) })
	}
}

func checkMemoModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	const keys = 20
	newDFK := func() *DFK {
		dfk, err := Load(Config{
			Executors:      []Executor{NewThreadPoolExecutor("threads", 4)},
			Memoize:        true,
			MaxMemoEntries: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dfk
	}
	dfk := newDFK()
	defer func() { dfk.Cleanup() }()

	var mu sync.Mutex
	execs := map[int]int{}
	failNext := map[int]bool{}
	gate := make(chan struct{})
	app := NewGoApp("model", func(args Args) (any, error) {
		k := args["k"].(int)
		mu.Lock()
		g := gate
		mu.Unlock()
		<-g
		mu.Lock()
		execs[k]++
		fail := failNext[k]
		failNext[k] = false
		mu.Unlock()
		if fail {
			return nil, errTest
		}
		return memoModelResult(k), nil
	})
	model := &memoModel{cap: 8, restored: map[int]bool{}}

	for step := 0; step < steps; step++ {
		where := fmt.Sprintf("seed %d step %d", seed, step)
		if rng.Intn(12) == 0 {
			// Restart: snapshot, restore into a fresh DFK in LRU order (so
			// the restored recency matches the model), drop the old DFK.
			snap := dfk.MemoSnapshot()
			checkMemoSnapshot(t, where, snap, model)
			pos := map[string]int{}
			for _, e := range snap {
				v, _ := ResultCodec{}.Decode(e.Raw)
				pos[e.Key] = memoModelKey(v)
			}
			rank := map[int]int{}
			for i, k := range model.lru {
				rank[k] = i
			}
			sort.Slice(snap, func(i, j int) bool { return rank[pos[snap[i].Key]] < rank[pos[snap[j].Key]] })
			dfk.Cleanup()
			dfk = newDFK()
			if n := dfk.RestoreMemo(snap); n != len(snap) {
				t.Fatalf("%s: restored %d of %d entries", where, n, len(snap))
			}
			if n := dfk.RestoreMemo(snap); n != 0 {
				t.Fatalf("%s: a second restore installed %d entries", where, n)
			}
			var kept []int
			for _, k := range model.lru {
				if _, ok := memoModelResult(k).(struct{ K int }); !ok {
					kept = append(kept, k)
					model.restored[k] = true
				}
			}
			model.lru = kept
			continue
		}

		k := rng.Intn(keys)
		group := 1 + rng.Intn(4)
		fail := !model.has(k) && rng.Intn(4) == 0
		mu.Lock()
		failNext[k] = fail
		before := execs[k]
		gate = make(chan struct{})
		release := gate
		mu.Unlock()
		futs := make([]*AppFuture, group)
		for i := range futs {
			futs[i] = dfk.Submit(app, Args{"k": k}, CallOpts{})
		}
		time.Sleep(time.Duration(rng.Intn(3)) * 50 * time.Microsecond)
		close(release)

		// The model: a present key is a hit for the whole group; an absent
		// one executes once — twice when the owner fails and another
		// submission of the group takes over, in a table the failed owner's
		// entry already made room in.
		wantExecs, wantFailed := 0, 0
		switch {
		case model.has(k):
			model.touch(k)
		case fail && group == 1:
			wantExecs, wantFailed = 1, 1
			model.own()
		case fail:
			wantExecs, wantFailed = 2, 1
			model.own()
			model.insert(k)
		default:
			wantExecs = 1
			model.own()
			model.insert(k)
		}
		want := model.want(k)
		failed := 0
		var maps []*yamlx.Map
		for _, f := range futs {
			res, err := f.Wait()
			if err != nil {
				failed++
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: key %d returned %#v, want %#v", where, k, res, want)
			}
			if m, ok := res.(*yamlx.Map); ok {
				maps = append(maps, m)
			}
		}
		for i := range maps {
			for j := i + 1; j < len(maps); j++ {
				if maps[i] == maps[j] {
					t.Fatalf("%s: two submissions of key %d share one result map", where, k)
				}
			}
		}
		dfk.Wait()
		mu.Lock()
		gotExecs := execs[k] - before
		mu.Unlock()
		if gotExecs != wantExecs || failed != wantFailed {
			t.Fatalf("%s: key %d (group %d, owner fails %v): %d executions and %d failures, want %d and %d",
				where, k, group, fail, gotExecs, failed, wantExecs, wantFailed)
		}
		if n := dfk.IndexStats().MemoEntries; n != len(model.lru) {
			t.Fatalf("%s: table holds %d entries, model %d (%v)", where, n, len(model.lru), model.lru)
		}
	}
	checkMemoSnapshot(t, fmt.Sprintf("seed %d end", seed), dfk.MemoSnapshot(), model)
}

// memoModelKey recovers the model key from a decoded result.
func memoModelKey(v any) int {
	switch t := v.(type) {
	case *yamlx.Map:
		n, _ := t.GetMap("out").Value("size").(int64)
		return int(n)
	case int64:
		return int(t)
	case []any:
		n, _ := t[0].(int64)
		return int(n)
	case File:
		var n int
		fmt.Sscanf(t.Path, "/work/%d", &n)
		return n
	}
	return -1
}

// checkMemoSnapshot compares a snapshot with the model: exactly the
// checkpointable completed keys, each as the codec's encoding of its result.
func checkMemoSnapshot(t *testing.T, where string, snap []MemoEntry, model *memoModel) {
	t.Helper()
	want := map[int]bool{}
	for _, k := range model.lru {
		if _, ok := memoModelResult(k).(struct{ K int }); !ok {
			want[k] = true
		}
	}
	if len(snap) != len(want) {
		t.Fatalf("%s: snapshot holds %d entries, model %d", where, len(snap), len(want))
	}
	for _, e := range snap {
		v, err := ResultCodec{}.Decode(e.Raw)
		if err != nil {
			t.Fatalf("%s: snapshot entry %s: %v", where, e.Raw, err)
		}
		k := memoModelKey(v)
		enc, _ := ResultCodec{}.Encode(model.want(k))
		if !want[k] || e.App != "model" || string(e.Raw) != string(enc) {
			t.Fatalf("%s: snapshot entry %+v (key %d), want the encoding %s of a model entry", where, e, k, enc)
		}
	}
}
