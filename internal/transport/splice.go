package transport

import (
	"os"
	"sync"
)

// Borrowed payload (DESIGN.md §4.1). A response's payload may take in
// bytes the response does not own, each a section placed behind the Data
// bytes present when it was added, so the frame is the one Data would
// make had the section's bytes been appended to it: memory (Splice, a
// cache entry's read-only mapping), which leaves in the reply's one
// vectored write; a file range (SetPayloadFile, zerocopy.go), which
// leaves by sendfile; or a file whose descriptor rides the frame (Pass,
// pass.go), Data then naming its range. Every section's releaser runs
// with the Response's Release, except those serveConn holds until the
// peer's next request because something reads them after the write
// returns: every passed descriptor, which the peer preads, and a
// sendfile range, whose pages the socket still holds (hold).

// section is one borrowed part of the payload, behind the first at bytes
// of Data: memory p, or n bytes of f at off (n is 0 for a passed file,
// whose range is in Data).
type section struct {
	at     int
	p      []byte
	f      *os.File
	off, n int64
	rel    PayloadReleaser
}

// borrowed is a response's sections in payload order, pooled so that a
// warm serve allocates nothing.
type borrowed struct {
	secs   []section
	n      int            // the sections' own bytes on the wire
	passed int            // passed files; when any is, every file section is
	whole  bool           // the passed file is a whole read's payload
	st     *ZeroCopyStats // a sendfile range's accounting; nil without one
}

var borrowedPool = sync.Pool{New: func() any { return new(borrowed) }}

// borrow adds s behind Data as it stands and returns the list.
func (r *Response) borrow(s section) *borrowed {
	if r.b == nil {
		r.b = borrowedPool.Get().(*borrowed)
	}
	s.at = len(r.Data)
	r.b.secs = append(r.b.secs, s)
	r.b.n += len(s.p) + int(s.n)
	return r.b
}

// Splice borrows p as the payload's next bytes, after Data as it stands;
// rel is released with the Response. p must stay readable until then, and
// Data may grow afterwards but not shrink below the bytes it held at the
// call.
func (r *Response) Splice(p []byte, rel PayloadReleaser) {
	r.borrow(section{p: p, rel: rel})
}

// payloadLen is the payload's length on the wire, borrowed bytes included.
func (r *Response) payloadLen() int {
	if r.b == nil {
		return len(r.Data)
	}
	return len(r.Data) + r.b.n
}

// hold moves onto held the releasers of the file sections read after the
// write returns — every passed file, and a sendfile range when the
// connection sendfiles it — for serveConn to release on the peer's next
// request; memory goes back with the Response.
func (r *Response) hold(held []PayloadReleaser, sendfile bool) []PayloadReleaser {
	if r.b == nil || r.b.passed == 0 && !sendfile {
		return held
	}
	for i := range r.b.secs {
		if s := &r.b.secs[i]; s.f != nil && s.rel != nil {
			held, s.rel = append(held, s.rel), nil
		}
	}
	return held
}

// release runs the releasers the connection did not take and pools the
// list.
func (b *borrowed) release() {
	for _, s := range b.secs {
		if s.rel != nil {
			s.rel.Release()
		}
	}
	clear(b.secs)
	*b = borrowed{secs: b.secs[:0]}
	borrowedPool.Put(b)
}
