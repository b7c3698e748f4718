package provider

import (
	"bufio"
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The worker protocol is a transport-agnostic session layer: each side writes
// frames of a 4-byte big-endian length followed by that many body bytes.
// A session opens with a JSON handshake — the worker writes one hello frame
// (protocol version, identity, capacity, shared secret) and the engine
// answers with an ack accepting or rejecting it — and then carries task
// traffic in the binary codec (codec.go): the engine writes batches of run
// requests, the worker runs them on its slot pool — at most its announced
// capacity at once, started in arrival order — and writes batches of
// responses in completion order, matched by id. Sessions with
// a heartbeat interval additionally carry worker → engine heartbeat frames,
// and either side can end the session gracefully: the engine with a drain
// frame (or by closing its write side), the worker by finishing every task
// it received and sending a bye frame. docs/PROTOCOL.md is the
// normative spec.
//
// The same session runs over any byte stream. ProcessProvider speaks it over
// a worker subprocess's stdin/stdout pipes; the network fabric
// (internal/fabric) speaks it over TCP/TLS connections.

// ProtoVersion is the worker protocol version; the engine refuses workers
// that announce a different one. Version 2 added the session layer: hello
// acknowledgement, worker identity/capacity/secret in the hello, and
// heartbeat/drain/bye frames. Version 3 made the batched binary codec the
// only post-handshake wire form. Version 4 made the hello's capacity the
// worker's binding slot count (FIFO start, a slot freed only after its
// completion is written) and dropped the ack's batch cap.
const ProtoVersion = 4

// maxFrameBytes bounds one frame so a corrupt length prefix cannot make
// either side allocate unbounded memory.
const maxFrameBytes = 64 << 20

// maxHelloBytes bounds the first (pre-authentication) frame of a session:
// an unauthenticated peer must not be able to make the engine allocate a
// task-sized buffer.
const maxHelloBytes = 64 << 10

// ErrHelloRejected marks a handshake the engine refused — wrong protocol
// version or failed authentication. Workers must treat it as terminal
// (retrying with the same credentials cannot succeed).
var ErrHelloRejected = errors.New("hello rejected")

// ErrBadSecret marks a hello whose shared secret did not match the
// engine's. It wraps ErrHelloRejected.
var ErrBadSecret = fmt.Errorf("%w: shared secret mismatch", ErrHelloRejected)

// Hello is the worker's first frame: protocol announcement, identity,
// capacity and credentials. Network workers additionally carry an identity
// and the shared secret.
type Hello struct {
	Proto int `json:"proto"`
	PID   int `json:"pid"`
	// ID names the worker across reconnects ("" for pipe workers, whose
	// identity is the process itself).
	ID string `json:"id,omitempty"`
	// Capacity is the worker's slot count: it runs at most this many tasks
	// at once and starts the rest in arrival order as slots free. Required
	// (at least 1); the engine sizes its dispatch window by it.
	Capacity int `json:"capacity"`
	// Secret authenticates the worker to the engine. Verified before any
	// task frame is exchanged.
	Secret string `json:"secret,omitempty"`
}

// HelloAck is the engine's answer to a hello: acceptance or rejection, and
// the session parameters the worker must follow.
type HelloAck struct {
	Proto int    `json:"proto"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// HeartbeatMs asks the worker to send a heartbeat frame this often
	// (0 = no heartbeats, the pipe transport's mode).
	HeartbeatMs int `json:"heartbeatMs,omitempty"`
}

// Decoded frame kinds. They never cross the wire (the binary codec tags
// frames with binKind* bytes); the decoders use them to tell task traffic
// from session control.
const (
	frameKindDrain = "drain" // engine → worker: finish received tasks, send bye, end session
	frameKindResp  = ""      // worker → engine: task response
	frameKindBeat  = "hb"    // worker → engine: liveness heartbeat
	frameKindBye   = "bye"   // worker → engine: graceful deregistration, received work is done
)

// workerRequest is one decoded engine → worker record: a run request (empty
// Kind) or a drain request.
type workerRequest struct {
	Kind string
	ID   int64
	Spec *RemoteSpec
	// DocErr is set by the decoder when a task referenced a shared document
	// the session never transferred: the task must fail without executing.
	DocErr string
}

// workerResponse is one decoded worker → engine record: a task result (Kind
// frameKindResp) or a session-control frame (heartbeat, bye).
type workerResponse struct {
	Kind   string
	ID     int64
	OK     bool
	Result json.RawMessage
	Error  string
	// Busy is the worker's in-flight task count, carried on heartbeats.
	Busy int
}

// FrameConn frames one bidirectional byte stream: reads are single-consumer
// and reuse a per-connection scratch buffer (the hot read loops run one frame
// per task, so a fresh allocation per frame is pure garbage); writes are
// serialized by a mutex so concurrent task goroutines can share the stream.
type FrameConn struct {
	r       *bufio.Reader
	scratch []byte
	closer  io.Closer

	wmu sync.Mutex
	w   *bufio.Writer
}

// NewFrameConn builds a FrameConn over a read and a write stream. closer,
// when non-nil, is what Close closes (for a net.Conn, the conn itself).
// At most one goroutine may call ReadRaw concurrently; Send and SendEncoded
// are safe for concurrent use.
func NewFrameConn(r io.Reader, w io.Writer, closer io.Closer) *FrameConn {
	return &FrameConn{r: bufio.NewReader(r), w: bufio.NewWriter(w), closer: closer}
}

// readHandshake reads one JSON handshake frame (hello or ack) into v, under
// the pre-authentication size cap. The body is decoded from the connection's
// scratch buffer; json.Unmarshal copies everything it keeps, so reusing the
// buffer across frames is safe.
func (fc *FrameConn) readHandshake(v any) error {
	body, err := fc.readRawMax(maxHelloBytes)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// ReadRaw reads one frame body without decoding it. The returned slice
// aliases the connection's scratch buffer and is only valid until the next
// read; decoders must copy whatever outlives the frame.
func (fc *FrameConn) ReadRaw() ([]byte, error) { return fc.readRawMax(maxFrameBytes) }

func (fc *FrameConn) readRawMax(max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fc.r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > max {
		return nil, fmt.Errorf("frame of %d bytes exceeds the %d byte limit", n, max)
	}
	if cap(fc.scratch) < n {
		fc.scratch = make([]byte, n)
	}
	body := fc.scratch[:n]
	if _, err := io.ReadFull(fc.r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// Send writes one JSON handshake frame.
func (fc *FrameConn) Send(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return fc.SendEncoded(body)
}

// SendEncoded writes one pre-encoded frame; an error here is a genuine
// stream failure.
func (fc *FrameConn) SendEncoded(body []byte) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := fc.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fc.w.Write(body); err != nil {
		return err
	}
	return fc.w.Flush()
}

// Close closes the underlying stream, if the FrameConn owns one.
func (fc *FrameConn) Close() error {
	if fc.closer != nil {
		return fc.closer.Close()
	}
	return nil
}

// VerifyHello is the single place a hello is judged: version and capacity
// checks, then constant-time shared-secret comparison. An empty engine
// secret disables authentication (the pipe transport, where the kernel
// already guarantees who is on the other end).
func VerifyHello(h Hello, secret string) error {
	if h.Proto != ProtoVersion {
		return fmt.Errorf("%w: worker speaks protocol %d, engine wants %d", ErrHelloRejected, h.Proto, ProtoVersion)
	}
	if h.Capacity < 1 {
		return fmt.Errorf("%w: worker announced capacity %d, want at least 1", ErrHelloRejected, h.Capacity)
	}
	if secret != "" && subtle.ConstantTimeCompare([]byte(h.Secret), []byte(secret)) != 1 {
		return ErrBadSecret
	}
	return nil
}

// DialWorkerSession performs the worker side of the handshake: send hello,
// await the engine's ack. The hello's Proto is forced to ProtoVersion. A
// rejection surfaces as an error wrapping ErrHelloRejected.
func DialWorkerSession(fc *FrameConn, hello Hello) (HelloAck, error) {
	hello.Proto = ProtoVersion
	if err := fc.Send(hello); err != nil {
		return HelloAck{}, fmt.Errorf("worker hello: %w", err)
	}
	var ack HelloAck
	if err := fc.readHandshake(&ack); err != nil {
		return HelloAck{}, fmt.Errorf("reading hello ack: %w", err)
	}
	if !ack.OK {
		msg := ack.Error
		if msg == "" {
			msg = "engine refused the session"
		}
		return ack, fmt.Errorf("%w: %s", ErrHelloRejected, msg)
	}
	if ack.Proto != ProtoVersion {
		return ack, fmt.Errorf("%w: engine speaks protocol %d, worker wants %d", ErrHelloRejected, ack.Proto, ProtoVersion)
	}
	return ack, nil
}

// WorkerSessionOptions configures the worker side of one session.
type WorkerSessionOptions struct {
	// Heartbeat, when positive, sends a heartbeat frame this often (the
	// interval the engine announced in its hello ack).
	Heartbeat time.Duration
	// Drain, when non-nil, triggers a graceful drain when closed: stop
	// accepting requests, finish every task already received, send final
	// responses and a bye frame, return nil. Used for SIGTERM/SIGINT
	// shutdown.
	Drain <-chan struct{}
	// Capacity is the worker's slot count, as announced in its hello.
	Capacity int

	// onStart, when set, is called with a task's wire id as it takes a slot,
	// on the session's main goroutine. Tests observe the slot pool through it.
	onStart func(id int64)
}

// SessionOptions derives the serve options a granted handshake implies: the
// capacity the hello announced and the heartbeat interval the ack asked for.
func SessionOptions(hello Hello, ack HelloAck, drain <-chan struct{}) WorkerSessionOptions {
	return WorkerSessionOptions{
		Heartbeat: time.Duration(ack.HeartbeatMs) * time.Millisecond,
		Drain:     drain,
		Capacity:  hello.Capacity,
	}
}

// DefaultCapacity is a worker's slot count when none is configured: one per
// CPU, so CPU-bound tools are not over-subscribed.
func DefaultCapacity() int { return runtime.NumCPU() }

// ServeWorkerSession runs the worker side of an established session. Run
// requests execute on a pool of opts.Capacity slots, started in arrival
// order; each slot frees only after its task's response has been written to
// the stream, so the engine can count which tasks had started when a
// session dies. It returns nil after a graceful end — engine EOF/drain
// frame, or the Drain channel closing — with every received task finished
// and its response sent, or the first protocol-level error otherwise.
func ServeWorkerSession(fc *FrameConn, opts WorkerSessionOptions) error {
	capacity := opts.Capacity
	if capacity < 1 {
		capacity = DefaultCapacity()
	}
	var inflight atomic.Int64

	// The reader runs in its own goroutine so the main loop can also honor
	// the drain signal; after a drain it may stay blocked in a read until
	// the process exits or the caller closes the connection.
	sessDone := make(chan struct{})
	defer close(sessDone)
	frames := make(chan workerRequest)
	readErr := make(chan error, 1)
	go func() {
		// docs is the session's shared-document cache: the engine ships each
		// tool document once, later tasks reference it by hash. Owned by this
		// goroutine — decodeRequests is its only writer.
		docs := map[string][]byte{}
		for {
			body, err := fc.ReadRaw()
			if err != nil {
				readErr <- err
				return
			}
			reqs, err := decodeRequests(body, docs)
			if err != nil {
				readErr <- fmt.Errorf("decoding engine frame: %w", err)
				return
			}
			for i := range reqs {
				select {
				case frames <- reqs[i]:
				case <-sessDone:
					return
				}
			}
		}
	}()

	// Responses ship through the result batcher. A write failure means the
	// engine is gone; the session is about to end anyway, so the error is
	// unreportable by design.
	results := newFrameBatcher(fc)

	stopBeats := make(chan struct{})
	defer close(stopBeats)
	if opts.Heartbeat > 0 {
		go func() {
			ticker := time.NewTicker(opts.Heartbeat)
			defer ticker.Stop()
			for {
				select {
				case <-stopBeats:
					return
				case <-ticker.C:
					// A failed heartbeat write means the engine is gone; the
					// read side will observe the same failure and end the
					// session.
					_ = fc.SendEncoded(binBeatFrame(int(inflight.Load())))
				}
			}
		}()
	}

	// The slot pool: a task takes a slot in arrival order and gives it back
	// only once its response is written (or can never be), so the engine can
	// count which tasks had started when a session dies. A slot's goroutine
	// runs queued tasks until none is left.
	var wg sync.WaitGroup // received tasks not yet answered
	pool := &slotPool{slots: capacity}
	pool.claim = func(t *Task) {
		inflight.Add(1)
		if opts.onStart != nil {
			opts.onStart(int64(t.ID))
		}
	}
	pool.start = func(t *Task) {
		go func() {
			for ; t != nil; t = pool.next() {
				rec, _ := t.Fn()
				results.write(rec.([]byte))
				inflight.Add(-1)
				wg.Done()
			}
		}()
	}
	// finish waits until every task received so far has run and its response
	// is written, then says goodbye: after a bye nothing the engine still
	// awaits had started.
	finish := func() error {
		wg.Wait()
		// Best-effort goodbye: the engine may already be gone, and the
		// session is over either way.
		_ = fc.SendEncoded([]byte{binKindBye})
		return nil
	}

	for {
		select {
		case <-opts.Drain:
			return finish()
		case err := <-readErr:
			if err == io.EOF {
				return finish()
			}
			wg.Wait()
			return fmt.Errorf("worker read: %w", err)
		case req := <-frames:
			if req.Kind == frameKindDrain {
				return finish()
			}
			wg.Add(1)
			pool.dispatch([]*Task{{ID: int(req.ID), Fn: func() (any, error) { return serveRequest(req), nil }}})
		}
	}
}

// serveRequest executes one run request and renders its response record.
func serveRequest(req workerRequest) []byte {
	resp := workerResponse{ID: req.ID}
	if req.DocErr != "" {
		resp.Error = req.DocErr
	} else if res, err := executeGuarded(req.Spec); err != nil {
		resp.Error = err.Error()
	} else {
		resp.OK = true
		resp.Result = res
	}
	return encodeResponseRecord(resp)
}

// encodeResponseRecord renders one binary response record. Responses over
// the frame cap are replaced with a task error — the frame layer would
// refuse them anyway, and the engine must not lose the id.
func encodeResponseRecord(resp workerResponse) []byte {
	rec := appendBinaryResponse(nil, resp)
	if len(rec) > maxRecordBytes {
		over := workerResponse{ID: resp.ID,
			Error: fmt.Sprintf("task result of %d bytes exceeds the %d byte frame limit", len(rec), maxFrameBytes)}
		return appendBinaryResponse(nil, over)
	}
	return rec
}

// RunWorker is the pipe-mode main loop of a binary standing in for
// parsl-cwl-worker (a test binary re-executed by a ProcessProvider): it
// reads the -capacity argument the provider appends from args, then serves
// stdin/stdout until the engine closes the pipe.
func RunWorker(r io.Reader, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	capacity := fs.Int("capacity", 0, "slot count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return RunPipeWorker(r, w, nil, *capacity)
}

// RunPipeWorker runs a pipe-transport worker session — handshake on the
// given streams, then serve on capacity slots (below 1 = DefaultCapacity) —
// with an optional drain trigger (closed on SIGTERM/SIGINT by the worker
// binary).
func RunPipeWorker(r io.Reader, w io.Writer, drain <-chan struct{}, capacity int) error {
	if capacity < 1 {
		capacity = DefaultCapacity()
	}
	fc := NewFrameConn(r, w, nil)
	hello := Hello{PID: os.Getpid(), Capacity: capacity}
	ack, err := DialWorkerSession(fc, hello)
	if err != nil {
		return err
	}
	return ServeWorkerSession(fc, SessionOptions(hello, ack, drain))
}

// executeGuarded runs one remote task converting panics to errors, so a bad
// document cannot kill a worker hosting other in-flight tasks.
func executeGuarded(spec *RemoteSpec) (res json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("remote task panicked: %v", r)
		}
	}()
	return ExecuteRemote(spec)
}
