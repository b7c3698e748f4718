package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/yamlx"
)

// ResultCache is a content-addressed cache of whole-run outputs, shared
// across tenants and runs: a submission whose document hash and canonical
// inputs match a previously succeeded run is answered from the cache without
// executing anything. The CWL reuse argument makes this sound — a CWL
// document is a pure description of a computation, so identical doc +
// identical inputs is the same computation regardless of who submits it.
// Tenants marked Private opt out in both directions (their results are never
// inserted, their submissions never served from it).
//
// Only successful runs are cached: failures may be transient (a flaky tool,
// a deadline) and must re-execute.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	hits    int
	misses  int
}

// resultEntry holds the held form of a run's outputs (runOutputs.held),
// shared with the run store.
type resultEntry struct {
	key      string
	held     []byte
	deflated bool
}

// NewResultCache returns a cache holding up to capacity run results.
// capacity <= 0 returns nil — a nil *ResultCache is a valid, always-miss
// cache, which is how the service disables result sharing.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		return nil
	}
	return &ResultCache{cap: capacity, entries: map[string]*list.Element{}, lru: list.New()}
}

// ResultKey derives the content address of one run: sha256 over the document
// hash and the canonical form of the inputs. Canonicalization sorts mapping
// keys recursively, so two submissions differing only in input key order
// share a key; values keep their YAML/JSON types (1 and "1" differ).
func ResultKey(docHash string, inputs *yamlx.Map) string {
	var sb strings.Builder
	sb.WriteString(docHash)
	sb.WriteByte(0)
	canonicalInto(&sb, inputs)
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// canonicalInto writes a deterministic serialization of a decoded YAML/JSON
// value: maps with sorted keys, every scalar tagged with its type so distinct
// types never collide.
func canonicalInto(sb *strings.Builder, v any) {
	switch x := v.(type) {
	case nil:
		sb.WriteString("z")
	case *yamlx.Map:
		sb.WriteString("m{")
		if x != nil {
			keys := append([]string(nil), x.Keys()...)
			sort.Strings(keys)
			for _, k := range keys {
				sb.WriteString(strconv.Quote(k))
				sb.WriteByte(':')
				canonicalInto(sb, x.Value(k))
				sb.WriteByte(',')
			}
		}
		sb.WriteString("}")
	case []any:
		sb.WriteString("l[")
		for _, e := range x {
			canonicalInto(sb, e)
			sb.WriteByte(',')
		}
		sb.WriteString("]")
	case string:
		sb.WriteByte('s')
		sb.WriteString(strconv.Quote(x))
	case bool:
		sb.WriteByte('b')
		sb.WriteString(strconv.FormatBool(x))
	case int64:
		sb.WriteByte('i')
		sb.WriteString(strconv.FormatInt(x, 10))
	case int:
		sb.WriteByte('i')
		sb.WriteString(strconv.Itoa(x))
	case float64:
		sb.WriteByte('f')
		sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	default:
		// Unknown shapes (shouldn't appear in decoded yamlx values) fall back
		// to their JSON form; a marshal failure degrades to a type tag, which
		// at worst causes a spurious cache miss, never a false hit... unless
		// two distinct unmarshalable values of one type collide — so include
		// the verbatim fmt form as a tiebreaker.
		if raw, err := json.Marshal(x); err == nil {
			sb.WriteByte('j')
			sb.Write(raw)
		} else {
			fmt.Fprintf(sb, "?%T:%v", x, x)
		}
	}
}

// Get returns the cached outputs for a result key: the held form, shared with
// the run that produced them, and its JSON in raw (inflated outside the
// cache lock when held is deflated). Callers must treat both as read-only.
func (c *ResultCache) Get(key string) (runOutputs, bool) {
	if c == nil {
		return runOutputs{}, false
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return runOutputs{}, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	e := el.Value.(*resultEntry)
	out := runOutputs{held: e.held, deflated: e.deflated}
	c.mu.Unlock()
	out.raw = heldJSON(out.held, out.deflated)
	return out, true
}

// Put caches the held outputs of a succeeded run, evicting
// least-recently-used entries past the capacity cap.
func (c *ResultCache) Put(key string, out runOutputs) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*resultEntry)
		e.held, e.deflated = out.held, out.deflated
		return
	}
	c.entries[key] = c.lru.PushFront(&resultEntry{key: key, held: out.held, deflated: out.deflated})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*resultEntry).key)
	}
}

// Stats reports hit/miss counters and the current entry count.
func (c *ResultCache) Stats() (hits, misses, entries int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}
