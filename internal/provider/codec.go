package provider

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// This file is the protocol's dispatch plane: the binary codec every
// post-handshake frame uses, and the frameBatcher the worker uses to
// coalesce its responses into batch frames. The normative description of
// everything here lives in docs/PROTOCOL.md, which a conformance test
// (docs_test.go) keeps in sync with these constants.

// defaultBatchMax is how many response records one worker frame may carry.
const defaultBatchMax = 64

// maxRecordBytes bounds one encoded record so that a single-record frame
// (record plus frame envelope) always fits under maxFrameBytes.
const maxRecordBytes = maxFrameBytes - 1024

// Binary-codec frame kinds: the first byte of every binary frame body.
const (
	binKindTaskBatch byte = 0x01 // engine → worker: uvarint count, task records
	binKindRespBatch byte = 0x02 // worker → engine: uvarint count, response records
	binKindBeat      byte = 0x03 // worker → engine: uvarint in-flight count
	binKindDrain     byte = 0x04 // engine → worker: drain request (no body)
	binKindBye       byte = 0x05 // worker → engine: graceful goodbye (no body)
)

// Binary task-record flag bits.
const (
	// binFlagSharedDoc: the payload omits the tool document; a document hash
	// follows the payload and the worker must splice the document back in
	// from its session cache.
	binFlagSharedDoc byte = 1 << 0
	// binFlagDocInline: the document bytes follow the hash — sent the first
	// time a session ships a given document, cached by the worker after.
	binFlagDocInline byte = 1 << 1
)

// --- binary codec: encoding ---

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendLenBytes(dst []byte, p []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

func appendLenString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBinaryTask renders one task record: uvarint id, length-prefixed
// kind, flags byte, length-prefixed payload, then — when flagged — the
// shared-document hash and, on first transfer, the document bytes.
func appendBinaryTask(dst []byte, id int64, kind string, payload []byte, docHash string, doc []byte) []byte {
	dst = appendUvarint(dst, uint64(id))
	dst = appendLenString(dst, kind)
	var flags byte
	if docHash != "" {
		flags |= binFlagSharedDoc
	}
	if doc != nil {
		flags |= binFlagDocInline
	}
	dst = append(dst, flags)
	dst = appendLenBytes(dst, payload)
	if docHash != "" {
		dst = appendLenString(dst, docHash)
	}
	if doc != nil {
		dst = appendLenBytes(dst, doc)
	}
	return dst
}

// appendBinaryResponse renders one response record: uvarint id, status byte
// (1 = ok), length-prefixed body (result JSON on success, error text on
// failure).
func appendBinaryResponse(dst []byte, resp workerResponse) []byte {
	dst = appendUvarint(dst, uint64(resp.ID))
	if resp.OK {
		dst = append(dst, 1)
		return appendLenBytes(dst, resp.Result)
	}
	dst = append(dst, 0)
	return appendLenString(dst, resp.Error)
}

// binBatchFrame assembles a binary batch frame: kind byte, uvarint record
// count, then the self-delimiting records.
func binBatchFrame(kind byte, records [][]byte) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, r := range records {
		size += len(r)
	}
	dst := make([]byte, 0, size)
	dst = append(dst, kind)
	dst = appendUvarint(dst, uint64(len(records)))
	for _, r := range records {
		dst = append(dst, r...)
	}
	return dst
}

// binBeatFrame renders a binary heartbeat carrying the in-flight count.
func binBeatFrame(busy int) []byte {
	return appendUvarint([]byte{binKindBeat}, uint64(busy))
}

// --- binary codec: decoding ---

// binReader is a cursor over one binary frame body; the first decode error
// sticks and every later read returns zero values. The decoders built on it
// are strict — canonical varints, known flag bits, no trailing bytes — so
// every frame they accept has exactly one encoding.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("malformed binary frame reading %s at offset %d", what, r.off)
	}
}

// uvarint reads one canonical uvarint. An overlong encoding (a zero final
// byte past the first) decodes, but no encoder emits it, so it is refused.
func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

// count reads a record count; one too large for an int is malformed.
func (r *binReader) count() int {
	n := int(r.uvarint("record count"))
	if n < 0 {
		r.fail("record count")
		return 0
	}
	return n
}

func (r *binReader) byte(what string) byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// lenBytes reads a length-prefixed byte string; the result aliases the
// frame body. The bound is checked against the bytes remaining, never as
// r.off+n, which overflows for lengths near 2^63.
func (r *binReader) lenBytes(what string) []byte {
	n := int(r.uvarint(what))
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail(what)
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// end reports the first decode error, or an error if bytes remain unread.
func (r *binReader) end() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("binary frame has %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// decodeRequests parses one engine → worker frame body into its requests.
// body aliases the connection scratch buffer, so it is copied first (task
// goroutines hold payload slices across frames). docs is the worker's
// per-session shared-document cache, owned by the read goroutine.
func decodeRequests(body []byte, docs map[string][]byte) ([]workerRequest, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("empty binary frame")
	}
	r := &binReader{b: append([]byte(nil), body...), off: 1}
	var reqs []workerRequest
	switch body[0] {
	case binKindDrain:
		reqs = []workerRequest{{Kind: frameKindDrain}}
	case binKindTaskBatch:
		count := r.count()
		reqs = make([]workerRequest, 0, min(count, 4096))
		for i := 0; i < count && r.err == nil; i++ {
			id := r.uvarint("task id")
			kind := string(r.lenBytes("task kind"))
			flags := r.byte("task flags")
			if flags&^(binFlagSharedDoc|binFlagDocInline) != 0 || flags == binFlagDocInline {
				r.fail("task flags")
			}
			payload := r.lenBytes("task payload")
			req := workerRequest{ID: int64(id), Spec: &RemoteSpec{Kind: kind, Payload: payload}}
			if flags&binFlagSharedDoc != 0 {
				hash := string(r.lenBytes("document hash"))
				if hash == "" {
					r.fail("document hash")
				}
				req.Spec.DocHash = hash
				if flags&binFlagDocInline != 0 {
					// The document outlives this frame in the session cache;
					// detach it so the cache does not pin whole frames.
					doc := bytes.Clone(r.lenBytes("document"))
					if r.err == nil {
						docs[hash] = doc
						req.Spec.Doc = doc
					}
				} else if doc, ok := docs[hash]; ok {
					req.Spec.Doc = doc
				} else {
					req.DocErr = fmt.Sprintf("shared document %s is not in the session cache", hash)
				}
			}
			reqs = append(reqs, req)
		}
	default:
		return nil, fmt.Errorf("unknown binary frame kind 0x%02x", body[0])
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// decodeResponses parses one worker → engine frame body into its responses.
// Copying discipline mirrors decodeRequests.
func decodeResponses(body []byte) ([]workerResponse, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("empty binary frame")
	}
	r := &binReader{b: append([]byte(nil), body...), off: 1}
	var resps []workerResponse
	switch body[0] {
	case binKindBye:
		resps = []workerResponse{{Kind: frameKindBye}}
	case binKindBeat:
		resps = []workerResponse{{Kind: frameKindBeat, Busy: int(r.uvarint("busy count"))}}
	case binKindRespBatch:
		count := r.count()
		resps = make([]workerResponse, 0, min(count, 4096))
		for i := 0; i < count && r.err == nil; i++ {
			resp := workerResponse{ID: int64(r.uvarint("response id"))}
			status := r.byte("response status")
			bodyBytes := r.lenBytes("response body")
			switch status {
			case 1:
				resp.OK = true
				resp.Result = bodyBytes
			case 0:
				resp.Error = string(bodyBytes)
			default:
				r.fail("response status")
			}
			resps = append(resps, resp)
		}
	default:
		return nil, fmt.Errorf("unknown binary frame kind 0x%02x", body[0])
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return resps, nil
}

// --- result batching ---

// frameBatcher is the worker's response writer, a group commit: task
// goroutines call write concurrently, and whichever finds no write in
// progress writes every record queued so far — up to defaultBatchMax, within
// the frame budget — as one frame, while the others wait for theirs. Under
// light load a record goes out in one write by its own goroutine; under
// heavy load framing amortizes, with no timer and no writer goroutine.
type frameBatcher struct {
	fc *FrameConn

	mu      sync.Mutex
	cond    sync.Cond // signalled after each frame write
	queue   [][]byte
	queued  uint64 // records ever queued; a record's number is queued at enqueue
	written uint64 // records written (or dropped) so far, in queue order
	writing bool
	dead    bool // a write failed: later records are dropped
}

func newFrameBatcher(fc *FrameConn) *frameBatcher {
	b := &frameBatcher{fc: fc}
	b.cond.L = &b.mu
	return b
}

// write sends one pre-encoded record, returning once a frame carrying it has
// been written — or once the stream has failed and it never will be.
func (b *frameBatcher) write(rec []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return
	}
	b.queue = append(b.queue, rec)
	b.queued++
	for mine := b.queued; b.written < mine && !b.dead; {
		if b.writing {
			b.cond.Wait()
			continue
		}
		b.writing = true
		recs := b.take()
		b.mu.Unlock()
		err := b.fc.SendEncoded(binBatchFrame(binKindRespBatch, recs))
		b.mu.Lock()
		b.writing = false
		b.written += uint64(len(recs))
		if err != nil {
			b.dead = true
			b.queue = nil
		}
		b.cond.Broadcast()
	}
}

// take dequeues up to defaultBatchMax records whose combined size stays
// under the frame cap. A single over-budget record is still taken alone; the
// per-record cap (maxRecordBytes) keeps it frameable. Caller holds b.mu.
func (b *frameBatcher) take() [][]byte {
	n, size := 0, 0
	for n < len(b.queue) && n < defaultBatchMax {
		size += len(b.queue[n]) + 2*binary.MaxVarintLen64
		if n > 0 && size > maxRecordBytes {
			break
		}
		n++
	}
	out := b.queue[:n:n]
	b.queue = b.queue[n:]
	return out
}
