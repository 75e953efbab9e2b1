package transport

import "sync"

// Borrowed payload memory (DESIGN.md §4.1). A response's payload may take
// in memory the response does not own — a cache entry's read-only mapping
// — between its own Data bytes: Splice puts p behind the Data bytes
// present at the call, and the frame is the one Data would make had p been
// appended to it. The payload leaves in the reply's one vectored write, so
// on a TCP connection only the kernel reads the borrowed bytes, and writev
// has copied them into the socket when it returns: each releaser runs with
// the Response's Release, after the write — unlike a sendfile payload's,
// which the connection holds until the peer's next request (zerocopy.go).

// splice is one borrowed segment: p follows the first at bytes of Data.
type splice struct {
	at  int
	p   []byte
	rel PayloadReleaser
}

// splices is a response's borrowed segments, pooled so that a warm serve
// allocates nothing; writeVectored places them in the reply.
type splices struct {
	list []splice
	n    int // borrowed bytes
}

var splicePool = sync.Pool{New: func() any { return new(splices) }}

// Splice borrows p as the payload's next bytes, after Data as it stands;
// rel is released with the Response. p must stay readable until then, and
// Data may grow afterwards but not shrink below the bytes it held at the
// call.
func (r *Response) Splice(p []byte, rel PayloadReleaser) {
	if r.sp == nil {
		r.sp = splicePool.Get().(*splices)
	}
	r.sp.list = append(r.sp.list, splice{len(r.Data), p, rel})
	r.sp.n += len(p)
}

// payloadLen is the payload's length on the wire, borrowed bytes included.
func (r *Response) payloadLen() int {
	if r.sp == nil {
		return len(r.Data)
	}
	return len(r.Data) + r.sp.n
}

// releaseSplices runs the releasers and pools the segment list.
func (r *Response) releaseSplices() {
	sp := r.sp
	r.sp = nil
	for _, s := range sp.list {
		s.rel.Release()
	}
	clear(sp.list)
	sp.list, sp.n = sp.list[:0], 0
	splicePool.Put(sp)
}
