package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
)

// Zero-copy payload plane (DESIGN.md §13). A response's payload can be
// an fd-backed range (SetPayloadFile) instead of an in-memory slice: the
// server's connection loop then hands the range to sendfile(2), so warm
// cache bytes travel cache-fd → socket entirely inside the kernel. The
// wire framing is unchanged — header, payload bytes, tail are
// bit-identical to the pooled pread+writev path — so the receiving codec
// cannot tell the difference, and any failure mode (non-TCP writer,
// non-Linux build, SimTransport, a short sendfile) falls back to
// userspace copies of exactly the bytes the frame promised.

// PayloadReleaser is the release half of an fd-backed payload: the
// transport calls Release exactly once when the owning Response is
// released, after the payload has been written (or abandoned on a dead
// connection). cachestore.Lease satisfies it.
type PayloadReleaser interface{ Release() }

// ZeroCopyStats counts fd-backed payload serves. Every eligible serve —
// a response carrying a file payload reaching WriteResponse — resolves
// as exactly one of Sends (the payload left through sendfile alone) or
// Fallbacks (any userspace bytes were involved: non-sendfile writer,
// mid-transfer error resume, or header failure). core's
// TestReadLadderThroughEveryWrapper and runChaosCase assert that identity
// end-to-end with ZeroCopy armed.
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
// of f starting at off, released through rel when the Response is
// released. It replaces any slice payload (Data must stay nil). st
// receives the zero-copy accounting; nil means an internal sink.
//
//hvac:owns rel
func (r *Response) SetPayloadFile(f *os.File, off, n int64, rel PayloadReleaser, st *ZeroCopyStats) {
	r.srcFile = f
	r.srcOff = off
	r.srcLen = n
	r.srcRel = rel
	if st == nil {
		st = &orphanZC
	}
	r.srcStats = st
}

// FilePayload reports whether the response's payload is fd-backed. The
// server connection loop routes such responses through its
// sendfile-capable writer.
func (r *Response) FilePayload() bool { return r.srcFile != nil }

// releaseSrc drops the fd-backed payload state, invoking the releaser.
func (r *Response) releaseSrc() {
	if r.srcRel != nil {
		r.srcRel.Release()
	}
	r.srcFile = nil
	r.srcOff = 0
	r.srcLen = 0
	r.srcRel = nil
	r.srcStats = nil
}

// fileSender is a writer that may be able to move an fd range to its
// destination without a userspace copy. canSendfile answers per
// connection (TCP on Linux); sendPayload reports how many bytes the
// kernel moved before any error.
type fileSender interface {
	canSendfile() bool
	sendPayload(f *os.File, off, n int64) (int64, error)
}

// zcWriter wraps a server connection for file-payload responses only:
// plain writes delegate to the conn, and the payload goes through
// sendfile when the platform supports it. Normal (slice-payload)
// responses must keep writing to the raw conn — net.Buffers' writev
// fast path type-asserts the conn itself.
type zcWriter struct {
	conn net.Conn
	rc   syscall.RawConn // nil when the conn exposes no raw descriptor

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
	return w
}

//hvac:blockguard serveConn sets the per-response write deadline on the underlying conn before routing a response here; a negative WriteTimeout disables it by design
func (w *zcWriter) Write(p []byte) (int, error) { return w.conn.Write(p) }

// writeFileResponse emits a response whose payload is an fd range. The
// frame on the wire is identical to WriteResponse's pooled path; only
// who copies the payload differs. Counter discipline: every path bumps
// Eligible exactly once and exactly one of Sends or Fallbacks — the
// identity the ladder and chaos tests assert.
func writeFileResponse(w io.Writer, resp *Response) error {
	if len(resp.Err) > 1<<16-1 {
		return fmt.Errorf("transport: error string too long")
	}
	frame := respFixedLen + int(resp.srcLen) + len(resp.Err)
	if resp.srcLen < 0 || frame > MaxFrame {
		return ErrFrameTooLarge
	}
	p := getFrameBuf(respHeadLen + 2 + len(resp.Err))
	defer putFrameBuf(p)
	ht := (*p)[:respHeadLen+2+len(resp.Err)]
	binary.LittleEndian.PutUint32(ht[0:], uint32(frame))
	ht[4] = resp.Status
	binary.LittleEndian.PutUint64(ht[5:], uint64(resp.Handle))
	binary.LittleEndian.PutUint64(ht[13:], uint64(resp.Size))
	binary.LittleEndian.PutUint32(ht[21:], uint32(resp.srcLen))
	binary.LittleEndian.PutUint16(ht[respHeadLen:], uint16(len(resp.Err)))
	copy(ht[respHeadLen+2:], resp.Err)

	st := resp.srcStats
	if st == nil {
		st = &orphanZC
	}
	st.Eligible.Add(1)

	if fs, ok := w.(fileSender); ok && fs.canSendfile() {
		// Header first: it must precede the payload on the wire, and a
		// failure here means nothing of the frame went out.
		if _, err := w.Write(ht[:respHeadLen]); err != nil {
			st.Fallbacks.Add(1)
			return err
		}
		sent, err := fs.sendPayload(resp.srcFile, resp.srcOff, resp.srcLen)
		st.Bytes.Add(sent)
		if err == nil && sent == resp.srcLen {
			st.Sends.Add(1)
			_, werr := w.Write(ht[respHeadLen:])
			return werr
		}
		// Mid-transfer trouble (EPIPE, a shrunk source, a deadline):
		// the header already promised srcLen payload bytes, so resume
		// in userspace from wherever the kernel stopped. If the
		// connection is truly dead the resume write fails and the
		// server loop closes it — the client's retry ladder restores
		// byte identity on a fresh connection.
		st.Fallbacks.Add(1)
		if rerr := preadResume(w, resp, sent); rerr != nil {
			return rerr
		}
		_, werr := w.Write(ht[respHeadLen:])
		return werr
	}

	// Not a sendfile-capable destination (SimTransport buffers, non-TCP
	// writers, non-Linux builds): pooled pread plus the same single
	// vectored write the slice-payload path uses.
	st.Fallbacks.Add(1)
	pp := getFrameBuf(int(resp.srcLen))
	defer putFrameBuf(pp)
	payload := (*pp)[:resp.srcLen]
	if err := readPayloadAt(resp.srcFile, payload, resp.srcOff); err != nil {
		return err
	}
	v := respVecPool.Get().(*respVec)
	v.arr = [3][]byte{ht[:respHeadLen], payload, ht[respHeadLen:]}
	v.bufs = v.arr[:]
	_, err := v.bufs.WriteTo(w)
	v.arr = [3][]byte{} // drop payload references before pooling
	respVecPool.Put(v)
	return err
}

// preadResume copies the unsent payload tail [srcOff+sent, srcOff+srcLen)
// through userspace after a partial sendfile.
func preadResume(w io.Writer, resp *Response, sent int64) error {
	remain := resp.srcLen - sent
	if remain <= 0 {
		return nil
	}
	pp := getFrameBuf(int(remain))
	defer putFrameBuf(pp)
	buf := (*pp)[:remain]
	if err := readPayloadAt(resp.srcFile, buf, resp.srcOff+sent); err != nil {
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
