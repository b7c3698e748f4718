package provider

import (
	"encoding/binary"
	"fmt"
	"sort"
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
}

// AcceptWorkerSession performs the engine side of the handshake on an
// established stream: read the hello (under the pre-authentication size
// cap), verify protocol version, capacity and secret, and ack. On success it
// returns the session — the caller starts its read loop — and the worker's
// hello; on failure the worker has been sent a rejection ack and the
// returned error wraps ErrHelloRejected (or reports the stream failure).
func AcceptWorkerSession(fc *FrameConn, opts AcceptOptions) (*ManagerSession, Hello, error) {
	var hello Hello
	if err := fc.readHandshake(&hello); err != nil {
		return nil, hello, fmt.Errorf("reading worker hello: %w", err)
	}
	if err := VerifyHello(hello, opts.Secret); err != nil {
		_ = fc.Send(HelloAck{Proto: ProtoVersion, OK: false, Error: err.Error()})
		return nil, hello, err
	}
	ack := HelloAck{
		Proto:       ProtoVersion,
		OK:          true,
		HeartbeatMs: int(opts.Heartbeat / time.Millisecond),
	}
	if err := fc.Send(ack); err != nil {
		return nil, hello, fmt.Errorf("sending hello ack: %w", err)
	}
	name := fmt.Sprintf("worker pid %d", hello.PID)
	if hello.ID != "" {
		name = fmt.Sprintf("worker %s (pid %d)", hello.ID, hello.PID)
	}
	return newManagerSession(fc, hello.Capacity, name), hello, nil
}

// ManagerSession is the engine side of one established worker session: the
// per-session state every transport shares — the outstanding-task table, the
// response read loop, liveness from heartbeats, and death/drain bookkeeping.
// ProcessProvider wraps one per worker subprocess; the network fabric wraps
// one per TCP connection.
//
// The session numbers its tasks 0, 1, 2, … in dispatch order (wire id = number
// + 1). The worker starts them in that order, at most slots at a time, and
// frees a slot only after the completion that freed it is on the stream, so
// when the session dies task i had started iff i < slots + completions
// received. That is how a death tells started tasks (ErrWorkerLost) from
// queued ones (ErrNotStarted).
type ManagerSession struct {
	fc    *FrameConn
	slots int
	name  string

	// OnDead, when set before ReadLoop starts, runs exactly once when the
	// session dies; graceful reports whether the worker deregistered with a
	// bye frame (as opposed to the stream breaking under it).
	OnDead func(graceful bool)

	dead     chan struct{}
	deadOnce sync.Once
	graceful atomic.Bool // bye received before the stream broke
	lastBeat atomic.Int64
	busy     atomic.Int64

	// wmu serializes Dispatch: ids are assigned and their frame written under
	// it, so wire order is id order. It also guards docsSent, which orders a
	// document-bearing record ahead of records referencing it by hash.
	wmu      sync.Mutex
	sent     int64 // tasks dispatched so far; the next task gets id sent+1
	docsSent map[string]struct{}

	mu        sync.Mutex
	completed int64 // completions received
	pending   map[int64]pendingTask
	bye       bool // the worker drained: nothing outstanding ever started
	closed    bool // MarkDead ran: no further dispatch
}

// pendingTask is one dispatched task awaiting its completion.
type pendingTask struct {
	t    *Task
	sent time.Time
}

func newManagerSession(fc *FrameConn, slots int, name string) *ManagerSession {
	s := &ManagerSession{
		fc:       fc,
		slots:    slots,
		name:     name,
		dead:     make(chan struct{}),
		pending:  map[int64]pendingTask{},
		docsSent: map[string]struct{}{},
	}
	s.lastBeat.Store(time.Now().UnixNano())
	return s
}

// Slots is the capacity the worker announced in its hello.
func (s *ManagerSession) Slots() int { return s.slots }

// ReadLoop pumps worker frames until the session ends: responses complete
// outstanding tasks, heartbeats refresh liveness, a bye marks a graceful
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
				s.complete(resp)
			case frameKindBeat:
				s.busy.Store(int64(resp.Busy))
			case frameKindBye:
				// The worker drained: it finished every task it started and
				// sent every response it owed.
				s.mu.Lock()
				s.bye = true
				s.mu.Unlock()
				s.MarkDead(true)
				return
			}
		}
	}
}

// complete resolves the task a response answers. An id with no outstanding
// task (already failed by MarkDead) is ignored.
func (s *ManagerSession) complete(resp workerResponse) {
	s.mu.Lock()
	p, ok := s.pending[resp.ID]
	if ok {
		delete(s.pending, resp.ID)
		s.completed++
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	observeRoundtrip(p.sent)
	if !resp.OK {
		p.t.Done(nil, fmt.Errorf("task %d: %s", p.t.ID, resp.Error))
		return
	}
	p.t.Done(DecodeResult(resp.Result))
}

// Dispatch ships a batch of tasks over the session, normally as one task
// frame, without waiting for any response. Tasks without a RemoteSpec run in
// the engine process instead. A task whose record exceeds the protocol cap
// fails as its own error — the worker is healthy, so reporting worker loss
// would kill the block and redispatch the same doomed task forever. A dead
// session refuses tasks as never started.
func (s *ManagerSession) Dispatch(batch []*Task) {
	var refused, unsendable []*Task
	var recs [][]byte
	var writeErr error
	size := 0
	now := time.Now()

	s.wmu.Lock()
	flush := func() {
		if len(recs) > 0 && writeErr == nil {
			observeBatch(len(recs))
			metRemoteTasks.Add(int64(len(recs)))
			if writeErr = s.fc.SendEncoded(binBatchFrame(binKindTaskBatch, recs)); writeErr == nil {
				metFramesSent.Inc()
			}
		}
		recs, size = nil, 0
	}
	for _, t := range batch {
		if t.Remote == nil {
			if s.Alive() {
				go func() { t.Done(guard(t.Fn)) }()
			} else {
				refused = append(refused, t)
			}
			continue
		}
		// Shared-document amortization: a spec carrying a slim payload plus
		// the document and its hash ships the document once per session;
		// siblings reference it by hash.
		spec := t.Remote
		var hash string
		var doc []byte
		if spec.DocHash != "" && len(spec.Doc) > 0 {
			hash = spec.DocHash
			if _, sent := s.docsSent[hash]; !sent {
				doc = spec.Doc
			}
		}
		rec := appendBinaryTask(nil, s.sent+1, spec.Kind, spec.Payload, hash, doc)
		if len(rec) > maxRecordBytes {
			unsendable = append(unsendable, t)
			continue
		}
		s.mu.Lock()
		closed := s.closed
		if !closed {
			s.pending[s.sent+1] = pendingTask{t: t, sent: now}
		}
		s.mu.Unlock()
		if closed {
			refused = append(refused, t)
			continue
		}
		s.sent++
		switch {
		case doc != nil:
			s.docsSent[hash] = struct{}{}
		case hash != "":
			metDocsAmortized.Inc()
		}
		// Keep a frame under the byte budget; a single record always fits.
		if size += len(rec) + 2*binary.MaxVarintLen64; len(recs) > 0 && size > maxRecordBytes {
			flush()
			size = len(rec) + 2*binary.MaxVarintLen64
		}
		recs = append(recs, rec)
	}
	flush()
	s.wmu.Unlock()

	if writeErr != nil {
		// Everything registered above is outstanding; MarkDead completes it.
		s.MarkDead(false)
	}
	for _, t := range unsendable {
		t.Done(nil, fmt.Errorf("task %d cannot be shipped to the worker: its record exceeds the %d byte frame limit", t.ID, maxFrameBytes))
	}
	if len(refused) > 0 {
		failAll(refused, fmt.Errorf("%s is gone: %w", s.name, ErrNotStarted))
	}
}

// SendDrain asks the worker to finish every task it holds, send a bye and
// end the session — the graceful teardown for transports where closing the
// stream would sever in-flight responses.
func (s *ManagerSession) SendDrain() error {
	return s.fc.SendEncoded([]byte{binKindDrain})
}

// MarkDead ends the session exactly once and completes every outstanding
// task, in dispatch order: a task the worker had started (by the slot
// invariant above) fails with ErrWorkerLost, the rest with ErrNotStarted.
// After a bye nothing outstanding had started. graceful records that the
// worker deregistered cleanly rather than dying; OnDead runs before the
// completions.
func (s *ManagerSession) MarkDead(graceful bool) {
	if graceful {
		s.graceful.Store(true)
	}
	s.deadOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		ids := make([]int64, 0, len(s.pending))
		for id := range s.pending {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		outstanding := make([]pendingTask, len(ids))
		for i, id := range ids {
			outstanding[i] = s.pending[id]
		}
		s.pending = nil
		started := int64(s.slots) + s.completed // ids 1..started had started
		if s.bye {
			started = 0
		}
		s.mu.Unlock()

		close(s.dead)
		if s.OnDead != nil {
			s.OnDead(s.graceful.Load())
		}
		for i, p := range outstanding {
			if ids[i] <= started {
				p.t.Done(nil, fmt.Errorf("%s died after starting task %d: %w", s.name, p.t.ID, ErrWorkerLost))
			} else {
				p.t.Done(nil, fmt.Errorf("%s died before starting task %d: %w", s.name, p.t.ID, ErrNotStarted))
			}
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
