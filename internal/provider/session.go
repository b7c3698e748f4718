package provider

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// AcceptOptions configures the engine side of a session handshake.
type AcceptOptions struct {
	// Secret, when non-empty, is the shared secret every hello must carry.
	// Verified in constant time before the session is accepted; a rejected
	// peer receives a negative ack and never sees a task frame.
	Secret string
	// Heartbeat, when positive, is the heartbeat interval announced to the
	// worker (0 = no heartbeats, the pipe transport's mode).
	Heartbeat time.Duration
	// BatchMax caps the records per batch frame in both directions; it is
	// announced to the worker in the ack (0 = the protocol default, 64).
	BatchMax int
}

// AcceptWorkerSession performs the engine side of the handshake on an
// established stream: read the hello (under the pre-authentication size
// cap), verify protocol version and secret, and ack. On success it returns
// the session — the caller starts its read loop — and the worker's hello;
// on failure the worker has been sent a rejection ack and the returned error
// wraps ErrHelloRejected (or reports the stream failure).
func AcceptWorkerSession(fc *FrameConn, opts AcceptOptions) (*ManagerSession, Hello, error) {
	var hello Hello
	if err := fc.readHandshake(&hello); err != nil {
		return nil, hello, fmt.Errorf("reading worker hello: %w", err)
	}
	if err := VerifyHello(hello, opts.Secret); err != nil {
		_ = fc.Send(HelloAck{Proto: ProtoVersion, OK: false, Error: err.Error()})
		return nil, hello, err
	}
	batchMax := opts.BatchMax
	if batchMax <= 0 {
		batchMax = defaultBatchMax
	}
	ack := HelloAck{
		Proto:       ProtoVersion,
		OK:          true,
		HeartbeatMs: int(opts.Heartbeat / time.Millisecond),
		BatchMax:    batchMax,
	}
	if err := fc.Send(ack); err != nil {
		return nil, hello, fmt.Errorf("sending hello ack: %w", err)
	}
	return newManagerSession(fc, batchMax), hello, nil
}

// ManagerSession is the engine side of one established worker session: the
// per-session state every transport shares — the in-flight request table,
// the response read loop, liveness from heartbeats, and death/drain
// bookkeeping. ProcessProvider wraps one per worker subprocess; the network
// fabric wraps one per TCP connection.
type ManagerSession struct {
	fc *FrameConn

	// batcher coalesces task records into batch frames.
	batcher *frameBatcher

	// OnDead, when set before ReadLoop starts, runs exactly once when the
	// session dies; graceful reports whether the worker deregistered with a
	// bye frame (as opposed to the stream breaking under it).
	OnDead func(graceful bool)

	dead     chan struct{}
	deadOnce sync.Once
	graceful atomic.Bool // bye received before the stream broke
	lastBeat atomic.Int64
	busy     atomic.Int64

	mu      sync.Mutex
	seq     int64
	pending map[int64]chan workerResponse

	// docMu guards docsSent and orders doc-bearing records ahead of records
	// that reference the same document by hash.
	docMu    sync.Mutex
	docsSent map[string]struct{}
}

func newManagerSession(fc *FrameConn, batchMax int) *ManagerSession {
	s := &ManagerSession{
		fc:       fc,
		dead:     make(chan struct{}),
		pending:  map[int64]chan workerResponse{},
		docsSent: map[string]struct{}{},
	}
	s.batcher = newFrameBatcher(fc, batcherConfig{
		kind:   binKindTaskBatch,
		max:    batchMax,
		onDead: func() { s.MarkDead(false) },
	})
	s.lastBeat.Store(time.Now().UnixNano())
	return s
}

// ReadLoop pumps worker frames until the session ends: responses complete
// in-flight Roundtrips, heartbeats refresh liveness, a bye marks a graceful
// deregistration. It owns the connection's read side; run it in exactly one
// goroutine.
func (s *ManagerSession) ReadLoop() {
	for {
		body, err := s.fc.ReadRaw()
		if err != nil {
			s.MarkDead(false)
			return
		}
		resps, err := decodeResponses(body)
		if err != nil {
			// A frame the engine cannot decode means the stream is corrupt or
			// the worker broke protocol; the session cannot continue.
			s.MarkDead(false)
			return
		}
		s.lastBeat.Store(time.Now().UnixNano())
		metFramesReceived.Inc()
		for i := range resps {
			resp := resps[i]
			switch resp.Kind {
			case frameKindResp:
				s.mu.Lock()
				ch := s.pending[resp.ID]
				delete(s.pending, resp.ID)
				s.mu.Unlock()
				if ch != nil {
					ch <- resp
				}
			case frameKindBeat:
				s.busy.Store(int64(resp.Busy))
			case frameKindBye:
				// The worker drained: every response it owed has been sent.
				s.MarkDead(true)
				return
			}
		}
	}
}

// Roundtrip ships one task over the session and waits for its response or
// the session's death. Errors wrapping ErrWorkerLost report that the session
// died (re-dispatch); any other error is the task's own failure.
func (s *ManagerSession) Roundtrip(taskID int, spec *RemoteSpec) (any, error) {
	ch := make(chan workerResponse, 1)
	s.mu.Lock()
	s.seq++
	id := s.seq
	s.pending[id] = ch
	s.mu.Unlock()
	metRemoteTasks.Inc()
	cleanup := func() {
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
	}
	start := time.Now()
	if err := s.ship(id, spec); err != nil {
		cleanup()
		if errors.Is(err, ErrWorkerLost) {
			return nil, err
		}
		// Encoding failures (a record over the protocol cap) are the task's
		// own problem: the worker is healthy, so they
		// must not be reported as worker loss — that would kill the block
		// and redispatch the same doomed task onto a fresh worker forever.
		return nil, fmt.Errorf("task %d cannot be shipped to the worker: %w", taskID, err)
	}
	select {
	case resp := <-ch:
		observeRoundtrip(start)
		if !resp.OK {
			return nil, fmt.Errorf("task %d: %s", taskID, resp.Error)
		}
		return DecodeResult(resp.Result)
	case <-s.dead:
		cleanup()
		return nil, fmt.Errorf("session died mid-task: %w", ErrWorkerLost)
	}
}

// ship encodes one task record and hands it to the batcher. Errors wrapping
// ErrWorkerLost report session death; any other error is the task's own
// encode failure.
func (s *ManagerSession) ship(id int64, spec *RemoteSpec) error {
	// Shared-document amortization: a spec carrying a slim payload plus the
	// document and its hash ships the document once per session; siblings
	// reference it by hash. docMu makes check-and-enqueue atomic so the
	// doc-bearing record is always queued (FIFO) ahead of its references.
	if spec.DocHash != "" && len(spec.Doc) > 0 {
		s.docMu.Lock()
		defer s.docMu.Unlock()
		_, sent := s.docsSent[spec.DocHash]
		var doc []byte
		if !sent {
			doc = spec.Doc
		}
		rec := appendBinaryTask(nil, id, spec.Kind, spec.Payload, spec.DocHash, doc)
		if len(rec) > maxRecordBytes {
			return fmt.Errorf("task record of %d bytes exceeds the %d byte frame limit", len(rec), maxFrameBytes)
		}
		if err := s.send(rec); err != nil {
			return err
		}
		if sent {
			metDocsAmortized.Inc()
		} else {
			s.docsSent[spec.DocHash] = struct{}{}
		}
		return nil
	}
	rec := appendBinaryTask(nil, id, spec.Kind, spec.Payload, "", nil)
	if len(rec) > maxRecordBytes {
		return fmt.Errorf("task record of %d bytes exceeds the %d byte frame limit", len(rec), maxFrameBytes)
	}
	return s.send(rec)
}

// send hands one encoded task record to the batcher.
func (s *ManagerSession) send(rec []byte) error {
	if !s.batcher.enqueue(rec) {
		return fmt.Errorf("session writer stopped: %w", ErrWorkerLost)
	}
	return nil
}

// SendDrain asks the worker to finish in-flight tasks, send a bye and end
// the session — the graceful teardown for transports where closing the
// stream would sever in-flight responses. It overtakes any still-queued
// batched tasks; those fail over to redispatch when the session ends.
func (s *ManagerSession) SendDrain() error {
	return s.fc.SendEncoded([]byte{binKindDrain})
}

// MarkDead ends the session exactly once, failing every in-flight Roundtrip
// with ErrWorkerLost and firing OnDead. graceful records that the worker
// deregistered cleanly rather than dying.
func (s *ManagerSession) MarkDead(graceful bool) {
	if graceful {
		s.graceful.Store(true)
	}
	s.deadOnce.Do(func() {
		s.batcher.kill()
		close(s.dead)
		if s.OnDead != nil {
			s.OnDead(s.graceful.Load())
		}
	})
}

// Alive reports whether the session is still usable.
func (s *ManagerSession) Alive() bool {
	select {
	case <-s.dead:
		return false
	default:
		return true
	}
}

// Dead is closed when the session ends.
func (s *ManagerSession) Dead() <-chan struct{} { return s.dead }

// Drained reports whether the worker deregistered gracefully (bye frame).
func (s *ManagerSession) Drained() bool { return s.graceful.Load() }

// LastBeat is when the worker last proved liveness (any frame counts; the
// session's creation seeds it).
func (s *ManagerSession) LastBeat() time.Time {
	return time.Unix(0, s.lastBeat.Load())
}

// Busy is the worker's last self-reported in-flight task count.
func (s *ManagerSession) Busy() int { return int(s.busy.Load()) }
