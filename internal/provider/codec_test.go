package provider

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestBinaryTaskRecordRoundTrip(t *testing.T) {
	docs := map[string][]byte{}
	rec := appendBinaryTask(nil, 42, KindEcho, []byte(`{"a":1}`), "", nil)
	reqs, err := decodeRequests(binBatchFrame(binKindTaskBatch, [][]byte{rec}), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].ID != 42 || reqs[0].Spec.Kind != KindEcho || string(reqs[0].Spec.Payload) != `{"a":1}` {
		t.Fatalf("round trip mangled the record: %+v", reqs)
	}
}

func TestBinarySharedDocCache(t *testing.T) {
	docs := map[string][]byte{}
	doc := []byte(`{"class":"CommandLineTool"}`)
	slim := []byte(`{"tool":null}`)

	// First record carries the document inline; it lands in the cache.
	first := appendBinaryTask(nil, 1, KindCWLTool, slim, "h1", doc)
	// Second references it by hash only.
	second := appendBinaryTask(nil, 2, KindCWLTool, slim, "h1", nil)
	// Third references a hash the session never transferred.
	third := appendBinaryTask(nil, 3, KindCWLTool, slim, "missing", nil)

	reqs, err := decodeRequests(binBatchFrame(binKindTaskBatch, [][]byte{first, second, third}), docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("got %d requests", len(reqs))
	}
	if string(reqs[0].Spec.Doc) != string(doc) || string(docs["h1"]) != string(doc) {
		t.Fatalf("inline document not cached: %q / cache %q", reqs[0].Spec.Doc, docs["h1"])
	}
	if string(reqs[1].Spec.Doc) != string(doc) || reqs[1].DocErr != "" {
		t.Fatalf("hash reference not resolved: %+v", reqs[1])
	}
	if reqs[2].DocErr == "" || reqs[2].Spec.Doc != nil {
		t.Fatalf("unknown hash must set DocErr: %+v", reqs[2])
	}

	// The cache survives across frames — the point of the amortization.
	later := appendBinaryTask(nil, 4, KindCWLTool, slim, "h1", nil)
	reqs, err = decodeRequests(binBatchFrame(binKindTaskBatch, [][]byte{later}), docs)
	if err != nil {
		t.Fatal(err)
	}
	if string(reqs[0].Spec.Doc) != string(doc) {
		t.Fatal("cache did not survive across frames")
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	ok := workerResponse{ID: 7, OK: true, Result: json.RawMessage(`{"x":2}`)}
	bad := workerResponse{ID: 8, Error: "boom"}
	frame := binBatchFrame(binKindRespBatch, [][]byte{
		appendBinaryResponse(nil, ok),
		appendBinaryResponse(nil, bad),
	})
	resps, err := decodeResponses(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("got %d responses", len(resps))
	}
	if !resps[0].OK || resps[0].ID != 7 || string(resps[0].Result) != `{"x":2}` {
		t.Fatalf("ok response mangled: %+v", resps[0])
	}
	if resps[1].OK || resps[1].ID != 8 || resps[1].Error != "boom" {
		t.Fatalf("error response mangled: %+v", resps[1])
	}

	if resps, err = decodeResponses(binBeatFrame(5)); err != nil || resps[0].Kind != frameKindBeat || resps[0].Busy != 5 {
		t.Fatalf("beat frame: %+v, %v", resps, err)
	}
	if resps, err = decodeResponses([]byte{binKindBye}); err != nil || resps[0].Kind != frameKindBye {
		t.Fatalf("bye frame: %+v, %v", resps, err)
	}
}

func TestBinaryDecodeRejectsCorruptFrames(t *testing.T) {
	// A length varint of 2^63-1 overflows a naive off+n bounds check; the
	// record must be refused, not sliced.
	const huge = 1<<63 - 1
	hugeResp := appendUvarint([]byte{binKindRespBatch, 1, 0, 1}, huge)
	hugeTask := appendUvarint([]byte{binKindTaskBatch, 1, 0}, huge)
	for _, body := range [][]byte{
		{},                       // empty
		{0x7f},                   // unknown kind
		{binKindTaskBatch},       // missing count
		{binKindTaskBatch, 2},    // count without records
		{binKindRespBatch, 1, 9}, // truncated record
		append(hugeResp, "x"...), // response body length near 2^63
		append(hugeTask, "x"...), // task kind length near 2^63
		// Decodable but non-canonical: each has another, canonical encoding.
		{binKindRespBatch, 0x80, 0x00},                      // overlong varint
		{binKindBye, 0},                                     // trailing byte
		{binKindRespBatch, 1, 0, 2, 0},                      // status neither 0 nor 1
		{binKindTaskBatch, 1, 0, 0, 0x04, 0},                // unknown flag bit
		{binKindTaskBatch, 1, 0, 0, binFlagDocInline, 0, 0}, // inline doc without a hash
		{binKindTaskBatch, 1, 0, 0, binFlagSharedDoc, 0, 0}, // empty document hash
	} {
		// Every one of these is malformed for both directions (a task-batch
		// kind is unknown to the response decoder and vice versa).
		if _, err := decodeRequests(body, map[string][]byte{}); err == nil {
			t.Errorf("decodeRequests(%v) accepted a corrupt frame", body)
		}
		if _, err := decodeResponses(body); err == nil {
			t.Errorf("decodeResponses(%v) accepted a corrupt frame", body)
		}
	}
}

// gatedWriter blocks its first Write until gate closes. FrameConn
// serializes writes, so w needs no lock of its own.
type gatedWriter struct {
	w     io.Writer
	gate  chan struct{}
	first sync.Once
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.first.Do(func() { <-g.gate })
	return g.w.Write(p)
}

// TestFrameBatcherCoalesces: records written while another frame is on its
// way go out together, at most defaultBatchMax per frame, and every write
// returns only once its record is on the stream.
func TestFrameBatcherCoalesces(t *testing.T) {
	var buf bytes.Buffer
	gw := &gatedWriter{w: &buf, gate: make(chan struct{})}
	b := newFrameBatcher(NewFrameConn(bytes.NewReader(nil), gw, nil))
	const n = 3 * defaultBatchMax
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.write(appendBinaryResponse(nil, workerResponse{ID: int64(i), OK: true, Result: []byte(`1`)}))
		}()
	}
	// Hold the first frame's write until every record has queued behind it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		queued := b.queued
		b.mu.Unlock()
		if queued == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d records queued", queued, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gw.gate)
	wg.Wait()

	frames, total := 0, 0
	fr := NewFrameConn(&buf, io.Discard, nil)
	for {
		body, err := fr.ReadRaw()
		if err != nil {
			break
		}
		resps, err := decodeResponses(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(resps) > defaultBatchMax {
			t.Fatalf("frame carries %d records, max is %d", len(resps), defaultBatchMax)
		}
		frames++
		total += len(resps)
	}
	if total != n {
		t.Fatalf("records out = %d, want %d", total, n)
	}
	if frames >= n {
		t.Fatalf("no coalescing: %d frames for %d records", frames, n)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write(p []byte) (int, error) { return 0, errors.New("sink broke") }

// TestFrameBatcherWriteFailureReleasesRecords: a failed frame write still
// returns every writer waiting on it — the worker frees a task's slot when
// its write returns — and later writes return at once instead of waiting
// for a stream that is gone.
func TestFrameBatcherWriteFailureReleasesRecords(t *testing.T) {
	b := newFrameBatcher(NewFrameConn(bytes.NewReader(nil), errWriter{}, nil))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.write([]byte{byte(i)})
			}()
		}
		wg.Wait()
		b.write([]byte{0xff}) // after the failure
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a write never returned after the stream failed")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.dead || len(b.queue) != 0 {
		t.Fatalf("after a failed write: dead = %v, %d records still queued", b.dead, len(b.queue))
	}
}

// TestSessionCodecMatrix drives a full engine↔worker session in-process over
// pipes for each worker capacity: same tasks, same results, whatever the
// slot count and the frames carry.
func TestSessionCodecMatrix(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
	}{
		{"binary batched (default)", 0},
		{"capacity 1", 1},
		{"capacity 7", 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// engine → worker pipe and worker → engine pipe
			ewR, ewW := io.Pipe()
			weR, weW := io.Pipe()
			workerDone := make(chan error, 1)
			go func() {
				workerDone <- RunPipeWorker(ewR, weW, nil, tc.capacity)
			}()

			fc := NewFrameConn(weR, ewW, nil)
			sess, hello, err := AcceptWorkerSession(fc, AcceptOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.capacity
			if want == 0 {
				want = DefaultCapacity()
			}
			if hello.Capacity != want || sess.Slots() != want {
				t.Fatalf("hello capacity = %d, session slots = %d, want %d", hello.Capacity, sess.Slots(), want)
			}
			go sess.ReadLoop()

			var wg sync.WaitGroup
			errs := make(chan error, 32)
			batch := make([]*Task, 32)
			for i := range batch {
				spec, err := NewEchoSpec(map[string]any{"i": i})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				batch[i] = &Task{ID: i, Remote: spec, Done: func(res any, err error) {
					defer wg.Done()
					if err != nil {
						errs <- err
						return
					}
					if !resultHasI(res, i) {
						errs <- fmt.Errorf("task %d echoed %v", i, res)
					}
				}}
			}
			// Half as one frame, half one task at a time.
			sess.Dispatch(batch[:16])
			for _, task := range batch[16:] {
				sess.Dispatch([]*Task{task})
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Graceful teardown: drain → bye → session dead, worker exits nil.
			if err := sess.SendDrain(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-sess.Dead():
			case <-time.After(10 * time.Second):
				t.Fatal("session never observed the bye")
			}
			if !sess.Drained() {
				t.Fatal("drain not recorded as graceful")
			}
			select {
			case err := <-workerDone:
				if err != nil {
					t.Fatalf("worker exit: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("worker never exited after drain")
			}
		})
	}
}

// resultHasI reports whether a decoded echo result carries {"i": i} — result
// maps decode as *yamlx.Map, compared structurally to stay independent of
// its String rendering.
func resultHasI(res any, i int) bool {
	type intGetter interface{ GetInt(string, int) int }
	if m, ok := res.(intGetter); ok {
		return m.GetInt("i", -1) == i
	}
	return reflect.DeepEqual(res, map[string]any{"i": i})
}

// TestSessionSharedDocSentOncePerSession asserts the engine-side half of the
// amortization: two specs sharing one DocHash, dispatched in separate frames,
// produce one inline document on the wire.
func TestSessionSharedDocSentOncePerSession(t *testing.T) {
	var buf bytes.Buffer
	fc := NewFrameConn(bytes.NewReader(nil), &buf, nil)
	sess := newManagerSession(fc, 1, "test worker")

	doc := []byte(`{"class":"CommandLineTool"}`)
	for id := 1; id <= 2; id++ {
		sess.Dispatch([]*Task{{
			ID:     id,
			Remote: &RemoteSpec{Kind: KindCWLTool, Payload: []byte(`{"tool":null}`), Doc: doc, DocHash: "h"},
			Done:   func(any, error) {},
		}})
	}

	docs := map[string][]byte{}
	fr := NewFrameConn(&buf, io.Discard, nil)
	var all []workerRequest
	for {
		body, err := fr.ReadRaw()
		if err != nil {
			break
		}
		reqs, err := decodeRequests(body, docs)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, reqs...)
	}
	if len(all) != 2 {
		t.Fatalf("got %d records", len(all))
	}
	if len(docs) != 1 {
		t.Fatalf("document cache holds %d entries, want 1", len(docs))
	}
	for i, req := range all {
		if req.DocErr != "" || string(req.Spec.Doc) != string(doc) {
			t.Fatalf("record %d did not resolve the shared doc: %+v", i, req)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary frame bodies to both decoders. Neither may
// panic, and any frame one accepts must re-encode to the same bytes — the
// decoders are strict, so an accepted frame has exactly one encoding.
func FuzzDecodeFrame(f *testing.F) {
	slim := []byte(`{"tool":null}`)
	doc := []byte(`{"class":"CommandLineTool"}`)
	f.Add(binBatchFrame(binKindTaskBatch, [][]byte{appendBinaryTask(nil, 42, KindEcho, []byte(`{"a":1}`), "", nil)}))
	f.Add(binBatchFrame(binKindTaskBatch, [][]byte{
		appendBinaryTask(nil, 1, KindCWLTool, slim, "h1", doc),
		appendBinaryTask(nil, 2, KindCWLTool, slim, "h1", nil),
		appendBinaryTask(nil, 3, KindCWLTool, slim, "missing", nil),
	}))
	f.Add(binBatchFrame(binKindRespBatch, [][]byte{
		appendBinaryResponse(nil, workerResponse{ID: 7, OK: true, Result: []byte(`{"x":2}`)}),
		appendBinaryResponse(nil, workerResponse{ID: 8, Error: "boom"}),
	}))
	f.Add(binBeatFrame(5))
	f.Add([]byte{binKindBye})
	f.Add([]byte{binKindDrain})
	f.Add(append(appendUvarint([]byte{binKindRespBatch, 1, 0, 1}, 1<<63-1), 'x'))

	f.Fuzz(func(t *testing.T, body []byte) {
		if reqs, err := decodeRequests(body, map[string][]byte{}); err == nil {
			if got := reencodeRequests(body, reqs); !bytes.Equal(got, body) {
				t.Fatalf("request frame %x re-encodes as %x", body, got)
			}
		}
		if resps, err := decodeResponses(body); err == nil {
			if got := reencodeResponses(resps); !bytes.Equal(got, body) {
				t.Fatalf("response frame %x re-encodes as %x", body, got)
			}
		}
	})
}

// reencodeRequests renders decoded requests back into a frame body. A shared
// document resolved from the session cache and one that travelled inline
// decode alike, so each such record takes the inline form only where that is
// what the original bytes hold.
func reencodeRequests(orig []byte, reqs []workerRequest) []byte {
	if len(reqs) == 1 && reqs[0].Kind == frameKindDrain {
		return []byte{binKindDrain}
	}
	out := appendUvarint([]byte{binKindTaskBatch}, uint64(len(reqs)))
	for _, req := range reqs {
		s := req.Spec
		rec := appendBinaryTask(nil, req.ID, s.Kind, s.Payload, s.DocHash, nil)
		if s.DocHash != "" && s.Doc != nil {
			inline := appendBinaryTask(nil, req.ID, s.Kind, s.Payload, s.DocHash, s.Doc)
			if bytes.HasPrefix(orig[len(out):], inline) {
				rec = inline
			}
		}
		out = append(out, rec...)
	}
	return out
}

// reencodeResponses renders decoded responses back into a frame body.
func reencodeResponses(resps []workerResponse) []byte {
	switch {
	case len(resps) == 1 && resps[0].Kind == frameKindBye:
		return []byte{binKindBye}
	case len(resps) == 1 && resps[0].Kind == frameKindBeat:
		return binBeatFrame(resps[0].Busy)
	}
	out := appendUvarint([]byte{binKindRespBatch}, uint64(len(resps)))
	for _, resp := range resps {
		out = appendBinaryResponse(out, resp)
	}
	return out
}

// TestAcceptRefusesOldProtocolVersion: older workers are refused at hello — a
// negative ack and ErrHelloRejected — rather than failing later: a version-2
// worker expects JSON task frames, a version-3 worker runs every task it
// receives at once and so cannot honour a window sized by its capacity. A
// current worker that announces no capacity is refused the same way.
func TestAcceptRefusesOldProtocolVersion(t *testing.T) {
	for _, hello := range []string{
		`{"proto":2}`,
		`{"proto":3,"capacity":2}`,
		fmt.Sprintf(`{"proto":%d}`, ProtoVersion),
	} {
		ewR, ewW := io.Pipe()
		weR, weW := io.Pipe()
		accepted := make(chan error, 1)
		go func() {
			_, _, err := AcceptWorkerSession(NewFrameConn(weR, ewW, nil), AcceptOptions{})
			accepted <- err
		}()

		worker := NewFrameConn(ewR, weW, nil)
		if err := worker.SendEncoded([]byte(hello)); err != nil {
			t.Fatal(err)
		}
		var ack HelloAck
		if err := worker.readHandshake(&ack); err != nil {
			t.Fatal(err)
		}
		if ack.OK || ack.Proto != ProtoVersion || ack.Error == "" {
			t.Fatalf("hello %s: ack = %+v, want a version-%d rejection", hello, ack, ProtoVersion)
		}
		if err := <-accepted; !errors.Is(err, ErrHelloRejected) {
			t.Fatalf("hello %s: AcceptWorkerSession error = %v, want ErrHelloRejected", hello, err)
		}
	}
}
