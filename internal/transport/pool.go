package transport

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
)

// Frame-buffer pooling. Every frame the codec encodes or decodes, and
// every payload a server handler reads into, comes from a set of
// size-classed sync.Pools instead of a fresh make: on the warm read path
// the paper cares about (§IV — a cached read should cost near-NVMe
// latency, not allocator and GC time) the per-call allocation count drops
// to zero once the pools are primed.
//
// Ownership rules (see DESIGN.md §4.1):
//
//   - Buffers handed out by Response.Grab belong to that Response and are
//     returned by Response.Release — the single place a pooled frame goes
//     back. A pooled Response is released exactly once: a second Release
//     panics, and OutstandingResponses counts the ones not yet released.
//   - The codec's own scratch buffers (request frames, response
//     head/tail) never escape the encode/decode call.

// Size classes are powers of two from 512 B (minBufClass) to MaxFrame
// (64 MiB, maxBufClass); requests above MaxFrame fall back to plain make.
const (
	minBufClass = 9
	maxBufClass = 26
)

var framePools [maxBufClass - minBufClass + 1]sync.Pool

// bufClass maps a byte count to its pool index, or -1 when unpoolable.
func bufClass(n int) int {
	if n < 0 || n > 1<<maxBufClass {
		return -1
	}
	c := minBufClass
	for 1<<c < n {
		c++
	}
	return c - minBufClass
}

// getFrameBuf returns a pooled buffer with capacity >= n. The *[]byte is
// the pool token: hand the same pointer back to putFrameBuf, so the round
// trip allocates nothing.
func getFrameBuf(n int) *[]byte {
	c := bufClass(n)
	if c < 0 {
		b := make([]byte, n)
		return &b
	}
	if p, ok := framePools[c].Get().(*[]byte); ok {
		return p
	}
	b := make([]byte, 1<<(c+minBufClass))
	return &b
}

// putFrameBuf returns a pooled buffer. Buffers whose capacity is not an
// exact size class (oversized make fallbacks) are dropped to the GC.
func putFrameBuf(p *[]byte) {
	n := cap(*p)
	if c := bufClass(n); c >= 0 && 1<<(c+minBufClass) == n {
		*p = (*p)[:n]
		framePools[c].Put(p)
	}
}

// respVec is the pooled vectored-write state for a response's payload:
// the net.Buffers slice is always rebuilt over the struct's own backing,
// because Buffers.WriteTo consumes the slice header (advancing it past
// the backing) — pooling the bare header would re-allocate it on every
// reuse. The backing grows to the most sections a reply has had; files
// is the descriptors a passed reply carries (writePassed).
type respVec struct {
	bufs  net.Buffers
	arr   [][]byte
	files []*os.File
}

var respVecPool = sync.Pool{New: func() any { return new(respVec) }}

// appendSections appends a reply's sections to b: head, then data with
// b's borrowed memory placed at its offsets (a file section adds none;
// bw nil: data alone), then tail.
func appendSections(b [][]byte, head, data []byte, bw *borrowed, tail []byte) [][]byte {
	b = append(b, head)
	prev := 0
	if bw != nil {
		for _, s := range bw.secs {
			b = append(b, data[prev:s.at], s.p)
			prev = s.at
		}
	}
	return append(b, data[prev:], tail)
}

// writeVectored writes appendSections' sections as one vectored write —
// a single writev on a TCP connection.
func writeVectored(w io.Writer, head, data []byte, bw *borrowed, tail []byte) error {
	v := respVecPool.Get().(*respVec)
	b := appendSections(v.arr[:0], head, data, bw, tail)
	v.arr, v.bufs = b, b
	_, err := v.bufs.WriteTo(w)
	clear(b) // drop payload references before pooling
	respVecPool.Put(v)
	return err
}

// respPool recycles Response structs between AcquireResponse and Release;
// outstanding counts the ones handed out and not yet released.
var (
	respPool    = sync.Pool{New: func() any { return new(Response) }}
	outstanding atomic.Int64
)

// AcquireResponse returns a zeroed pooled Response. Pair it with exactly
// one Release: after Release the Response and any buffer obtained from
// its Grab must not be used. Responses built as plain literals remain
// valid targets for Release (it only recycles what came from a pool).
func AcquireResponse() *Response {
	r := respPool.Get().(*Response)
	r.fromPool, r.released = true, false
	outstanding.Add(1)
	return r
}

// OutstandingResponses reports how many pooled Responses this process
// has handed out (AcquireResponse, ReadResponse, Call) and not released.
func OutstandingResponses() int64 { return outstanding.Load() }
