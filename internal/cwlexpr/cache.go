package cwlexpr

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cwl"
)

// This file holds the two caches behind the compile-once hot path, both
// instances of one bounded LRU type:
//
//   - per-Engine program caches: compiled expression programs ($(...)
//     bodies, ${...} bodies, rewritten f-strings) and splitInterpolation
//     results, keyed by source text. Compile errors are cached too, so a
//     bad expression costs one parse, not one per task.
//   - the package-level engine pool: Engines keyed by the canonical
//     identity of their expression-relevant requirements (flags +
//     expressionLib sources), so repeated RunTool / runStep / Execute calls
//     for the same requirement set share one Engine — expression libraries
//     parse and execute once per distinct requirement set, not once per
//     task.

// DefaultProgramCacheCap bounds each Engine's compiled-program cache.
const DefaultProgramCacheCap = 4096

// DefaultEnginePoolCap bounds the shared engine pool (distinct requirement
// sets retained).
const DefaultEnginePoolCap = 128

type cacheEntry struct {
	key string
	val any
	err error
}

// lruCache is a small mutex-guarded bounded LRU keyed by strings. Values
// (and errors) are memoized via cached().
type lruCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	l   *list.List // front = most recently used
	// onHit/onMiss count lookups in process-wide metrics; both caches
	// built from this type feed different counter families. Called with the
	// lock held — must be a cheap atomic increment, nothing more.
	onHit  func()
	onMiss func()
}

func newProgCache(capacity int) *lruCache {
	if capacity <= 0 {
		capacity = DefaultProgramCacheCap
	}
	return &lruCache{cap: capacity, m: map[string]*list.Element{}, l: list.New()}
}

func (c *lruCache) get(key string) (any, error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		if c.onMiss != nil {
			c.onMiss()
		}
		return nil, nil, false
	}
	if c.onHit != nil {
		c.onHit()
	}
	c.l.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.val, ent.err, true
}

func (c *lruCache) add(key string, val any, err error) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		// Another goroutine raced us past the miss; keep its entry.
		c.l.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		return ent.val, ent.err
	}
	c.m[key] = c.l.PushFront(&cacheEntry{key: key, val: val, err: err})
	for c.l.Len() > c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
	return val, err
}

// cached memoizes compute by key, including its error. The computation runs
// outside the lock: concurrent misses on one key may duplicate work but
// never block unrelated lookups; the first insert wins.
func (c *lruCache) cached(key string, compute func() (any, error)) (any, error) {
	if v, err, ok := c.get(key); ok {
		return v, err
	}
	v, err := compute()
	return c.add(key, v, err)
}

// Program-cache key prefixes: one byte of kind plus a NUL keeps distinct
// program kinds compiled from identical source text apart.
const (
	kindJSExpr = "e\x00"
	kindJSBody = "b\x00"
	kindPyExpr = "p\x00"
	kindSegs   = "s\x00"
)

// --- Engine pool ---

var enginePool = newEnginePool(DefaultEnginePoolCap)

// newEnginePool builds the shared engine pool wired to its process-wide
// counters.
func newEnginePool(capacity int) *lruCache {
	c := newProgCache(capacity)
	c.onHit = metEnginePoolHits.Inc
	c.onMiss = metEnginePoolMisses.Inc
	return c
}

// newProgramCache builds a per-engine compiled-program cache wired to the
// process-wide program-cache counters.
func newProgramCache(capacity int) *lruCache {
	c := newProgCache(capacity)
	c.onHit = metProgCacheHits.Inc
	c.onMiss = metProgCacheMisses.Inc
	return c
}

// engineKey canonicalizes the expression-relevant requirement fields. Two
// requirement sets with the same flags and the same expressionLib sources
// (in order) share an engine; everything else about the requirements
// (Docker, resources, env, workdir) does not affect expression evaluation
// and is deliberately excluded. The full key — not a hash of it — is the map
// key, and each library source is length-prefixed, so distinct requirement
// sets can never collide (not even via embedded separator bytes).
func engineKey(reqs cwl.Requirements) string {
	var b strings.Builder
	if reqs.InlineJavascript {
		b.WriteString("js\x01")
		for _, lib := range reqs.JSExpressionLib {
			b.WriteString(strconv.Itoa(len(lib)))
			b.WriteByte(':')
			b.WriteString(lib)
		}
	}
	if reqs.InlinePython {
		b.WriteString("py\x01")
		for _, lib := range reqs.PyExpressionLib {
			b.WriteString(strconv.Itoa(len(lib)))
			b.WriteByte(':')
			b.WriteString(lib)
		}
	}
	return b.String()
}

// SharedEngine returns a pooled Engine for the given (merged) requirements,
// building and caching one on first use. Pooled engines are shared across
// goroutines and across tool invocations: expression libraries are parsed
// and executed once per distinct requirement set. Construction errors are
// cached alongside, so a broken expressionLib costs one parse total.
func SharedEngine(reqs cwl.Requirements) (*Engine, error) {
	v, err := enginePool.cached(engineKey(reqs), func() (any, error) {
		return NewEngine(reqs)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Engine), nil
}
