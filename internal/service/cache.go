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

// CachedDoc is one parsed-and-validated document as the cache serves it.
type CachedDoc struct {
	Doc cwl.Document
	// Index is the prebuilt dataflow index when Doc is a Workflow: cached
	// runs skip rebuilding the source→dependents graph on every execution.
	Index *runner.StepIndex
	// InProcess marks a document whose runs are evaluated entirely in the
	// engine process: a bare ExpressionTool, or a Workflow whose steps —
	// nested subworkflows included — are all ExpressionTools. Such runs never
	// reach the DFK, a provider or fork/exec.
	InProcess bool
	// Hash is the source's content hash (HashSource).
	Hash string
}

type docEntry struct {
	CachedDoc
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

// Load returns the parsed document for the given CWL source and whether it
// was served from cache. Documents are parsed with file references disabled —
// service submissions must be self-contained (inline `run:` bodies or a
// packed $graph). A parse or validation failure is returned wrapped in
// ErrInvalidDocument.
func (c *DocCache) Load(source []byte) (d CachedDoc, hit bool, err error) {
	hash := HashSource(source)
	c.mu.Lock()
	if el, ok := c.entries[hash]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		ent := el.Value.(*docEntry)
		c.mu.Unlock()
		return ent.CachedDoc, true, ent.err
	}
	c.misses++
	c.mu.Unlock()

	// Parse outside the lock; concurrent misses on the same document may
	// duplicate work, but never block unrelated submissions.
	d.Hash = hash
	d.Doc, err = parseAndValidate(source)
	if err == nil {
		d.InProcess = inProcess(d.Doc)
		if wf, ok := d.Doc.(*cwl.Workflow); ok {
			d.Index = runner.BuildStepIndex(wf)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		// Another goroutine raced us; keep its entry.
		ent := el.Value.(*docEntry)
		return ent.CachedDoc, false, ent.err
	}
	size := int64(len(source)) + d.Index.SizeEstimate()
	c.entries[hash] = c.lru.PushFront(&docEntry{CachedDoc: d, err: err, size: size})
	c.bytes += size
	for c.lru.Len() > 1 && (c.lru.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		ent := oldest.Value.(*docEntry)
		delete(c.entries, ent.Hash)
		c.bytes -= ent.size
	}
	return d, false, err
}

// inProcess reports whether every process in doc is an ExpressionTool, so a
// run of it is evaluated in the engine process without a Parsl task.
func inProcess(doc cwl.Document) bool {
	switch d := doc.(type) {
	case *cwl.ExpressionTool:
		return true
	case *cwl.Workflow:
		for _, step := range d.Steps {
			if !inProcess(step.Run) {
				return false
			}
		}
		return true
	}
	return false
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
