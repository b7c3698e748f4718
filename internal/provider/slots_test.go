package provider

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// responseSpy sits between a worker and its stream, counting the response
// records the worker has written — complete frames only — before passing
// the bytes on.
type responseSpy struct {
	w io.Writer

	mu    sync.Mutex
	buf   []byte
	resps int
}

func (s *responseSpy) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	for len(s.buf) >= 4 {
		n := int(binary.BigEndian.Uint32(s.buf))
		if len(s.buf) < 4+n {
			break
		}
		// The hello is JSON and bye/beat frames carry no responses; only
		// response batches decode here.
		if resps, err := decodeResponses(s.buf[4 : 4+n]); err == nil {
			for _, r := range resps {
				if r.Kind == frameKindResp {
					s.resps++
				}
			}
		}
		s.buf = s.buf[4+n:]
	}
	s.mu.Unlock()
	return s.w.Write(p)
}

func (s *responseSpy) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resps
}

// TestWorkerSlotPool: a worker with capacity 2 handed 6 sleep tasks in one
// frame never runs more than 2 at once, starts them in dispatch order, and
// frees a slot only after the completion that freed it is on the stream.
// Both follow from one check at every start: tasks started minus
// completions written never exceeds the capacity.
func TestWorkerSlotPool(t *testing.T) {
	const capacity = 2
	sleeps := []time.Duration{60, 20, 40, 10, 30, 20} // ms, to reorder completions

	var mu sync.Mutex
	var started []int64
	var problems []string
	peak := 0
	spy := &responseSpy{}
	onStart := func(id int64) {
		mu.Lock()
		defer mu.Unlock()
		started = append(started, id)
		busy := len(started) - spy.count()
		peak = max(peak, busy)
		if busy > capacity {
			problems = append(problems, fmt.Sprintf("task %d started with %d slots taken (completions written: %d)",
				id, busy, spy.count()))
		}
	}

	ewR, ewW := io.Pipe()
	weR, weW := io.Pipe()
	spy.w = weW
	workerDone := make(chan error, 1)
	go func() {
		fc := NewFrameConn(ewR, spy, nil)
		hello := Hello{PID: 1, Capacity: capacity}
		ack, err := DialWorkerSession(fc, hello)
		if err != nil {
			workerDone <- err
			return
		}
		opts := SessionOptions(hello, ack, nil)
		opts.onStart = onStart
		workerDone <- ServeWorkerSession(fc, opts)
	}()
	sess, _, err := AcceptWorkerSession(NewFrameConn(weR, ewW, nil), AcceptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go sess.ReadLoop()

	var wg sync.WaitGroup
	batch := make([]*Task, len(sleeps))
	for i, ms := range sleeps {
		spec, err := NewSleepSpec(ms*time.Millisecond, i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		batch[i] = &Task{ID: i, Remote: spec, Done: func(res any, err error) {
			defer wg.Done()
			if err != nil {
				t.Errorf("task %d: %v", i, err)
			} else if res != int64(i) {
				t.Errorf("task %d returned %v", i, res)
			}
		}}
	}
	sess.Dispatch(batch)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if peak != capacity {
		t.Errorf("peak concurrent tasks = %d, want exactly the capacity %d", peak, capacity)
	}
	// Wire ids number the tasks 1, 2, … in dispatch order.
	for k, id := range started {
		if id != int64(k+1) || len(started) != len(sleeps) {
			t.Errorf("start order %v, want dispatch order 1..%d", started, len(sleeps))
			break
		}
	}
	for _, p := range problems {
		t.Error(p)
	}

	ewW.Close() // engine EOF: the worker drains and says goodbye
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited after EOF")
	}
	<-sess.Dead()
	if !sess.Drained() {
		t.Error("worker EOF drain not recorded as graceful")
	}
}
