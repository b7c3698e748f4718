package service

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// packMin is the outputs size at and above which a finished run's outputs
// are held deflated. A 32-wide scatter's outputs (32 File objects, each path
// written three times) are about 11 KB and deflate to a few hundred bytes; a
// single tool's outputs are a few hundred bytes and stay raw.
const packMin = 4 << 10

// runOutputs is a succeeded run's outputs JSON as a finish hands it to the
// run store. raw is the JSON itself, which the finishing run's reply and
// journal record carry. held is what the run store and the result cache keep,
// one copy shared read-only by both: raw itself below packMin, else its
// deflated form (deflated set) when that is smaller.
type runOutputs struct {
	raw      json.RawMessage
	held     []byte
	deflated bool
}

// packOutputs builds the held form of raw. Callers run it outside the store
// and cache locks.
func packOutputs(raw json.RawMessage) runOutputs {
	out := runOutputs{raw: raw, held: raw}
	if len(raw) < packMin {
		return out
	}
	if b := deflate(raw); len(b) < len(raw) {
		out.held, out.deflated = b, true
	}
	return out
}

// heldJSON returns the outputs JSON a held form stores: held itself, or its
// inflation when deflated is set.
func heldJSON(held []byte, deflated bool) json.RawMessage {
	if !deflated {
		return held
	}
	return inflate(held)
}

// packer is the one deflate writer every pack shares. A flate.Writer is
// about 1 MB, so it is allocated on the first output at or above packMin and
// reused behind the mutex; a service whose outputs all stay below packMin
// never allocates it.
var packer struct {
	mu  sync.Mutex
	w   *flate.Writer
	buf bytes.Buffer
}

// deflate returns the uvarint length of raw followed by raw deflated at
// BestSpeed, in an exactly sized slice.
func deflate(raw []byte) []byte {
	packer.mu.Lock()
	defer packer.mu.Unlock()
	packer.buf.Reset()
	var n [binary.MaxVarintLen64]byte
	packer.buf.Write(n[:binary.PutUvarint(n[:], uint64(len(raw)))])
	if packer.w == nil {
		packer.w, _ = flate.NewWriter(&packer.buf, flate.BestSpeed)
	} else {
		packer.w.Reset(&packer.buf)
	}
	// Writes into a bytes.Buffer cannot fail.
	packer.w.Write(raw)
	packer.w.Close()
	out := make([]byte, packer.buf.Len())
	copy(out, packer.buf.Bytes())
	return out
}

// inflaters pools flate readers (each holds a 32 KiB window), reset onto
// each new blob through flate.Resetter.
var inflaters sync.Pool

// inflate reverses deflate. The blob was built by deflate in this process,
// so a blob that does not inflate is a program bug, not bad input.
func inflate(held []byte) json.RawMessage {
	n, k := binary.Uvarint(held)
	if k <= 0 {
		panic("service: held outputs have no length prefix")
	}
	src := bytes.NewReader(held[k:])
	r, _ := inflaters.Get().(io.ReadCloser)
	if r == nil {
		r = flate.NewReader(src)
	} else {
		r.(flate.Resetter).Reset(src, nil)
	}
	out := make([]byte, n)
	_, err := io.ReadFull(r, out)
	inflaters.Put(r)
	if err != nil {
		panic(fmt.Sprintf("service: held outputs do not inflate: %v", err))
	}
	return out
}
