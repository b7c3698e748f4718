package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/cwl"
	"repro/internal/runner"
)

// DocCache is a content-hash cache of parsed-and-validated CWL documents:
// repeated submissions of byte-identical CWL source skip ParseBytes+Validate
// on the hot submission path. The cache is bounded two ways — an LRU entry
// cap and a total-source-bytes cap — so sustained distinct-document traffic
// cannot grow it without limit even when individual documents are large.
//
// Cached documents are shared across concurrent runs; the engine treats
// parsed documents as read-only after load, which is what makes the sharing
// sound. Parse/validate failures are cached too, so a client hammering the
// service with a bad document pays the parse cost once.
type DocCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64 // total source bytes retained; <= 0 disables the byte cap
	bytes    int64
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	hits     int
	misses   int
}

type docEntry struct {
	hash string
	doc  cwl.Document
	// idx is the prebuilt dataflow index when doc is a Workflow: cached runs
	// skip rebuilding the source→dependents graph on every execution.
	idx *runner.StepIndex
	err error
	// size approximates the entry's memory cost: source length (the parsed
	// tree is proportional to it) plus the prebuilt StepIndex estimate —
	// scatter-heavy workflows can carry indexes far larger than their source,
	// and the byte cap must see them.
	size int64
}

// DefaultCacheBytes is the byte cap used when maxBytes is 0.
const DefaultCacheBytes = 64 << 20

// NewDocCache returns a cache holding up to capacity documents
// (capacity <= 0 selects the default of 128) totalling at most maxBytes of
// source (0 selects DefaultCacheBytes; negative disables the byte cap).
func NewDocCache(capacity int, maxBytes int64) *DocCache {
	if capacity <= 0 {
		capacity = 128
	}
	if maxBytes == 0 {
		maxBytes = DefaultCacheBytes
	}
	return &DocCache{cap: capacity, maxBytes: maxBytes, entries: map[string]*list.Element{}, lru: list.New()}
}

// HashSource returns the content hash used as the cache key (hex sha256).
func HashSource(source []byte) string {
	sum := sha256.Sum256(source)
	return hex.EncodeToString(sum[:])
}

// Load returns the parsed document for the given CWL source, its content
// hash, and whether it was served from cache. Documents are parsed with file
// references disabled — service submissions must be self-contained (inline
// `run:` bodies or a packed $graph). A parse or validation failure is
// returned wrapped in ErrInvalidDocument.
func (c *DocCache) Load(source []byte) (doc cwl.Document, hash string, hit bool, err error) {
	doc, _, hash, hit, err = c.LoadIndexed(source)
	return doc, hash, hit, err
}

// LoadIndexed is Load plus the document's prebuilt dataflow index (nil for
// non-Workflow documents): one BuildStepIndex per cached document instead of
// one per run.
func (c *DocCache) LoadIndexed(source []byte) (doc cwl.Document, idx *runner.StepIndex, hash string, hit bool, err error) {
	hash = HashSource(source)
	c.mu.Lock()
	if el, ok := c.entries[hash]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		ent := el.Value.(*docEntry)
		c.mu.Unlock()
		return ent.doc, ent.idx, hash, true, ent.err
	}
	c.misses++
	c.mu.Unlock()

	// Parse outside the lock; concurrent misses on the same document may
	// duplicate work, but never block unrelated submissions.
	doc, err = parseAndValidate(source)
	if wf, ok := doc.(*cwl.Workflow); ok && err == nil {
		idx = runner.BuildStepIndex(wf)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		// Another goroutine raced us; keep its entry.
		ent := el.Value.(*docEntry)
		return ent.doc, ent.idx, hash, false, ent.err
	}
	size := int64(len(source)) + idx.SizeEstimate()
	c.entries[hash] = c.lru.PushFront(&docEntry{hash: hash, doc: doc, idx: idx, err: err, size: size})
	c.bytes += size
	for c.lru.Len() > 1 && (c.lru.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		ent := oldest.Value.(*docEntry)
		delete(c.entries, ent.hash)
		c.bytes -= ent.size
	}
	return doc, idx, hash, false, err
}

func parseAndValidate(source []byte) (cwl.Document, error) {
	doc, err := cwl.ParseBytes(source, "", nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidDocument, err)
	}
	// Every class that parses — CommandLineTool, Workflow, ExpressionTool —
	// is runnable; validation is the only further gate.
	if _, err := cwl.Validate(doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidDocument, err)
	}
	return doc, nil
}

// Stats reports cache effectiveness counters and retained source bytes.
func (c *DocCache) Stats() (hits, misses, size int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len(), c.bytes
}
