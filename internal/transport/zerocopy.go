package transport

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
)

// Zero-copy payload plane (DESIGN.md §4.3). A response's payload can be
// an fd-backed range (SetPayloadFile), one of its borrowed sections
// (splice.go), instead of an in-memory slice: the server's connection
// loop then hands the range to sendfile(2), so warm cache bytes travel
// cache-fd → socket entirely inside the kernel. The wire framing is
// unchanged — header, payload bytes, tail are bit-identical to the pooled
// pread+writev path — so the receiving codec cannot tell the difference,
// and any failure mode (a writer without a raw descriptor, non-Linux
// build, SimTransport, a short sendfile) falls back to userspace copies
// of exactly the bytes the frame promised. A payload the server may pass
// as a descriptor on the local socket is offered to Response.Pass instead
// (pass.go), and never reaches this writer.

// PayloadReleaser is the release half of a borrowed section, and the
// transport calls Release exactly once. A file read after the write
// returns — a range sendfile(2) queued on the socket as the file's own
// pages, or a descriptor the peer preads — is released only once the
// server has read the peer's next request on that connection — the peer
// has read the whole frame before it sends one — or when the connection
// ends: on peer EOF the peer has stopped reading, and after a failed
// write the frame is incomplete, so no bytes the file's pages may still
// become are ever taken for the payload. Any other section was copied
// out by the time the write returned and is released with its Response.
// Server.Close severs connections whose last frame may still be in
// flight, so a caller stops whatever would overwrite the files before
// it. cachestore.Lease satisfies it.
type PayloadReleaser interface{ Release() }

// ZeroCopyStats counts fd-backed payload serves. Every eligible serve —
// a response carrying a file payload reaching WriteResponse — resolves
// as exactly one of Sends (the payload left through sendfile alone) or
// Fallbacks (any userspace bytes were involved: non-sendfile writer,
// mid-transfer error resume, or a failed header). core's
// TestReadLadderThroughEveryWrapper and runChaosCase assert that identity
// end-to-end.
type ZeroCopyStats struct {
	Eligible  atomic.Int64
	Sends     atomic.Int64
	Fallbacks atomic.Int64
	// Bytes counts payload bytes moved by sendfile itself (partial
	// transfers included); outside the identity.
	Bytes atomic.Int64
}

// orphanZC absorbs counts from responses whose builder attached no stats
// sink, so writeFileResponse never branches on a nil counter.
var orphanZC ZeroCopyStats

// SetPayloadFile attaches an fd-backed payload to the response: n bytes
// of f starting at off, a borrowed section (splice.go) released through
// rel. It is the whole payload: Data must stay nil. st receives the
// zero-copy accounting; nil means an internal sink.
func (r *Response) SetPayloadFile(f *os.File, off, n int64, rel PayloadReleaser, st *ZeroCopyStats) {
	if st == nil {
		st = &orphanZC
	}
	r.borrow(section{f: f, off: off, n: n, rel: rel}).st = st
}

// FilePayload reports whether the response's payload is fd-backed. The
// server connection loop routes such responses through its
// sendfile-capable writer.
func (r *Response) FilePayload() bool { return r.b != nil && r.b.st != nil }

// zcWriter wraps a server connection for file-payload responses and
// replies with passed payloads only: plain writes delegate to the conn,
// the payload goes through sendfile when the platform supports it
// (canSendfile: the conn exposes a raw descriptor), and descriptors
// through sendmsg on the local socket (canPass). Normal (slice-payload)
// responses must keep writing to the raw conn — net.Buffers' writev fast
// path type-asserts the conn itself.
type zcWriter struct {
	conn net.Conn
	rc   syscall.RawConn // nil when the conn exposes no raw descriptor

	// local is set for the local socket, the one a descriptor may be
	// passed on; tx is the sendmsg state for its descriptor replies.
	local bool
	tx    passTx

	// sendfile loop state, kept on the struct (with step bound once) so
	// a warm serve allocates nothing per call.
	step   func(fd uintptr) bool
	srcFD  int
	off    int64
	remain int64
	serr   error
}

// newZCWriter builds the file-payload writer for one connection.
func newZCWriter(conn net.Conn) *zcWriter {
	w := &zcWriter{conn: conn}
	if sc, ok := conn.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			w.rc = rc
		}
	}
	w.local = local(conn, w.rc)
	return w
}

// canPass reports whether the connection may carry descriptors: the local
// socket.
func (w *zcWriter) canPass() bool { return w.local }

// Write blocks no longer than the per-response write deadline serveConn
// sets on the conn before routing a response here; a negative WriteTimeout
// disables it by design (TestStalledReaderHitsWriteDeadline fails
// otherwise).
func (w *zcWriter) Write(p []byte) (int, error) { return w.conn.Write(p) }

// writeFileResponse writes a response whose payload is an fd range,
// between head and tail as WriteResponse built them: the frame on the
// wire is identical to WriteResponse's pooled path; only who copies the
// payload differs. Counter discipline: every path bumps Eligible exactly
// once and exactly one of Sends or Fallbacks — the identity the ladder
// and chaos tests assert.
func writeFileResponse(w io.Writer, head []byte, resp *Response, tail []byte) error {
	s, st := &resp.b.secs[len(resp.b.secs)-1], resp.b.st
	st.Eligible.Add(1)
	if zw, ok := w.(*zcWriter); ok && zw.canSendfile() {
		// Header first: it must precede the payload on the wire, and a
		// failure here means nothing of the frame went out.
		if _, err := w.Write(head); err != nil {
			st.Fallbacks.Add(1)
			return err
		}
		sent, err := zw.sendPayload(s.f, s.off, s.n)
		st.Bytes.Add(sent)
		if err == nil && sent == s.n {
			st.Sends.Add(1)
			_, werr := w.Write(tail)
			return werr
		}
		// Mid-transfer trouble (EPIPE, a shrunk source, a deadline):
		// the header already promised n payload bytes, so resume in
		// userspace from wherever the kernel stopped. If the connection
		// is truly dead the resume write fails and the server loop
		// closes it — the client's retry ladder restores byte identity
		// on a fresh connection.
		st.Fallbacks.Add(1)
		if rerr := preadResume(w, s, sent); rerr != nil {
			return rerr
		}
		_, werr := w.Write(tail)
		return werr
	}

	// Not a sendfile-capable destination (SimTransport buffers, non-TCP
	// writers, non-Linux builds): pooled pread plus the same single
	// vectored write the slice-payload path uses.
	st.Fallbacks.Add(1)
	pp := getFrameBuf(int(s.n))
	defer putFrameBuf(pp)
	payload := (*pp)[:s.n]
	if err := readPayloadAt(s.f, payload, s.off); err != nil {
		return err
	}
	return writeVectored(w, head, payload, nil, tail)
}

// preadResume copies the unsent tail of s's range, from sent on, through
// userspace after a partial sendfile.
func preadResume(w io.Writer, s *section, sent int64) error {
	remain := s.n - sent
	if remain <= 0 {
		return nil
	}
	pp := getFrameBuf(int(remain))
	defer putFrameBuf(pp)
	buf := (*pp)[:remain]
	if err := readPayloadAt(s.f, buf, s.off+sent); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// readPayloadAt fills buf from f at off, converting any short read into
// a hard error: the frame header has (or will have) promised exactly
// len(buf) payload bytes, so producing fewer must kill the connection
// rather than desynchronize the stream.
func readPayloadAt(f *os.File, buf []byte, off int64) error {
	n, err := f.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("transport: file payload short read (%d of %d bytes): %w", n, len(buf), err)
}
