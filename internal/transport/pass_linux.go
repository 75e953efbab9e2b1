//go:build linux && !386

package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"syscall"
	"unsafe"

	"hvac/internal/slab"
)

// cmsgFDs is one SCM_RIGHTS control message with room for passCap
// descriptors, laid out as CMSG_SPACE(4·passCap) bytes: the header, then
// the descriptors from CMSG_DATA on (TestCmsgFDLayout holds it to
// syscall.UnixRights). One carrying n descriptors is its first
// CMSG_SPACE(4n) bytes. It is built and parsed by hand because
// UnixRights and ParseSocketControlMessage allocate.
type cmsgFDs struct {
	hdr syscall.Cmsghdr
	fds [passCap]int32
}

// set fills the message with files' descriptors, at most passCap of
// them, and returns its length on the wire: 0, no message, for none.
func (cm *cmsgFDs) set(files []*os.File) int {
	n := min(len(files), passCap)
	if n == 0 {
		return 0
	}
	cm.hdr.Level, cm.hdr.Type = syscall.SOL_SOCKET, syscall.SCM_RIGHTS
	cm.hdr.SetLen(syscall.CmsgLen(4 * n))
	for i, f := range files[:n] {
		cm.fds[i] = int32(f.Fd())
	}
	return syscall.CmsgSpace(4 * n)
}

// setUint sets a kernel length field, whose width is the platform's.
func setUint[T ~uint32 | ~uint64](p *T, n int) { *p = T(n) }

// iovMax is the most sections one sendmsg takes (the kernel's UIO_MAXIOV);
// a frame with more leaves in several.
const iovMax = 1024

// local reports whether conn is a unix socket with a raw descriptor: the
// only kind of connection a descriptor is passed on. A server gets one
// only from its local listener, which admits trusted peers alone.
func local(conn net.Conn, rc syscall.RawConn) bool {
	return rc != nil && conn.LocalAddr().Network() == "unix"
}

// passTx is the server half: sendmsg state kept on the connection's
// zcWriter, with its step bound once, so a pass allocates nothing.
type passTx struct {
	msg   syscall.Msghdr
	iov   []syscall.Iovec // the frame's sections, grown to the most a reply has had
	next  int             // the first section not wholly sent
	cm    cmsgFDs
	cmLen int // the control message's length while the descriptors have not left; 0 after
	serr  error
	step  func(fd uintptr) bool
}

// passFrame sends secs, one frame, with files' descriptors attached to its
// first byte, through the netpoller as sendPayload does, so the write
// deadline holds. A frame that fits the socket's send buffer leaves in one
// sendmsg.
func (w *zcWriter) passFrame(secs [][]byte, files []*os.File) error {
	t := &w.tx
	if t.step == nil {
		t.step = w.sendmsgStep
	}
	t.iov, t.next = t.iov[:0], 0
	for _, s := range secs {
		if len(s) > 0 {
			v := syscall.Iovec{Base: &s[0]}
			v.SetLen(len(s))
			t.iov = append(t.iov, v)
		}
	}
	t.cmLen, t.serr = t.cm.set(files), nil
	err := w.rc.Write(t.step)
	clear(t.iov) // drop payload references
	if err == nil {
		err = t.serr
	}
	return err
}

// sendmsgStep is the RawConn.Write callback: send until the frame is out
// (the descriptors with the first bytes that leave), the socket would
// block (false: wait for writability), or a real error lands in serr.
func (w *zcWriter) sendmsgStep(fd uintptr) bool {
	t := &w.tx
	for t.next < len(t.iov) {
		t.msg.Iov = &t.iov[t.next]
		setUint(&t.msg.Iovlen, min(len(t.iov)-t.next, iovMax))
		t.msg.Control, t.msg.Controllen = nil, 0
		if t.cmLen > 0 {
			t.msg.Control = (*byte)(unsafe.Pointer(&t.cm))
			t.msg.SetControllen(t.cmLen)
		}
		n, _, e := syscall.Syscall(syscall.SYS_SENDMSG, fd, uintptr(unsafe.Pointer(&t.msg)), syscall.MSG_NOSIGNAL)
		switch {
		case e == syscall.EINTR:
		case e == syscall.EAGAIN:
			return false
		case e != 0:
			t.serr = e
			return true
		case n == 0:
			t.serr = io.ErrShortWrite
			return true
		default:
			t.cmLen = 0
			t.advance(int(n))
		}
	}
	return true
}

// advance moves past n sent bytes: whole sections, then into the next.
func (t *passTx) advance(n int) {
	for n > 0 {
		v := &t.iov[t.next]
		if l := int(v.Len); n < l {
			v.Base = (*byte)(unsafe.Add(unsafe.Pointer(v.Base), n))
			v.SetLen(l - n)
			return
		}
		n -= int(v.Len)
		t.next++
	}
}

// passRx is the client half: the reader under a local connection's
// bufio.Reader. Unarmed it is the connection's own Read, read(2); armed,
// for an exchange whose request mayPass, it receives with recvmsg(2) and
// queues the descriptors that arrive with the data until the decoder
// claims them, in order (readPassed, land). read(2) would drop the
// descriptors, and recvmsg is not counted in /proc/self/io, so only such
// an exchange is armed.
type passRx struct {
	conn  net.Conn
	rc    syscall.RawConn
	armed bool
	fds   []int // received descriptors, claimed from head on
	head  int

	// recvmsg state, kept here with step bound once so that a receive
	// allocates nothing. ctrl is the control space offered: all of cm,
	// except where a test offers less.
	msg  syscall.Msghdr
	iov  syscall.Iovec
	cm   cmsgFDs
	ctrl int
	n    int
	rerr error
	step func(fd uintptr) bool
}

// newPassRx returns conn's receiver, or nil when conn is not a local
// socket: nothing is passed over TCP, and its reads stay the conn's own.
func newPassRx(conn net.Conn) *passRx {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil || !local(conn, rc) {
		return nil
	}
	r := &passRx{conn: conn, rc: rc, fds: make([]int, 0, passCap), ctrl: int(unsafe.Sizeof(cmsgFDs{}))}
	r.step = r.recvmsgStep
	return r
}

// arm sets whether the coming exchange receives with recvmsg: when req
// mayPass.
func (r *passRx) arm(req *Request) {
	if r != nil {
		r.armed = mayPass(req)
	}
}

// disarm ends an exchange: back to read(2), and the descriptors no frame
// claimed — the exchange failed before its frame was decoded, or a peer
// sent them unasked — are closed.
func (r *passRx) disarm() {
	if r == nil {
		return
	}
	r.armed = false
	r.closeQueued()
}

// closeQueued closes every received descriptor not yet claimed.
func (r *passRx) closeQueued() {
	for _, fd := range r.fds[r.head:] {
		_ = syscall.Close(fd) // never read: nothing to report
	}
	r.fds, r.head = r.fds[:0], 0
}

// Read is read(2) unarmed and recvmsg(2) armed, under the connection's
// deadline either way.
func (r *passRx) Read(p []byte) (int, error) {
	if !r.armed || len(p) == 0 {
		return r.conn.Read(p)
	}
	r.iov.Base = &p[0]
	r.iov.SetLen(len(p))
	r.n, r.rerr = 0, nil
	err := r.rc.Read(r.step)
	r.iov.Base = nil
	switch {
	case err != nil:
		return 0, err
	case r.rerr != nil:
		return 0, r.rerr
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}

// recvmsgStep is the RawConn.Read callback: one recvmsg, or false to wait
// for the socket to become readable.
func (r *passRx) recvmsgStep(fd uintptr) bool {
	for {
		r.msg.Iov = &r.iov
		r.msg.Iovlen = 1
		r.msg.Control = (*byte)(unsafe.Pointer(&r.cm))
		r.msg.SetControllen(r.ctrl)
		r.msg.Flags = 0
		n, _, e := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&r.msg)), syscall.MSG_CMSG_CLOEXEC)
		switch e {
		case 0:
			r.n = int(n)
			r.keep()
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			r.rerr = e
			return true
		}
	}
}

var (
	errSecondDescriptor = errors.New("transport: corrupt response: a second descriptor message in one exchange")
	errCtrunc           = errors.New("transport: corrupt response: descriptors lost to a truncated control message")
)

// keep queues the descriptors a recvmsg delivered, if any. The server
// sends one control message per exchange, so a second before the first's
// were claimed is a corrupt stream, and so is one the kernel truncated
// (MSG_CTRUNC: the receiver ran out of descriptors, or of control space),
// whose lost descriptors no entry could be landed from.
func (r *passRx) keep() {
	var got []int32
	if int(r.msg.Controllen) >= syscall.CmsgLen(4) && r.cm.hdr.Level == syscall.SOL_SOCKET && r.cm.hdr.Type == syscall.SCM_RIGHTS {
		n := (int(r.cm.hdr.Len) - syscall.CmsgLen(0)) / 4
		got = r.cm.fds[:min(max(n, 0), passCap)]
	}
	switch {
	case r.msg.Flags&syscall.MSG_CTRUNC != 0:
		r.rerr = errCtrunc
	case len(got) > 0 && len(r.fds) > r.head:
		r.rerr = errSecondDescriptor
	default:
		for _, fd := range got {
			r.fds = append(r.fds, int(fd))
		}
		return
	}
	for _, fd := range got {
		_ = syscall.Close(int(fd)) // the stream is broken either way
	}
	r.closeQueued()
}

// take claims the next received descriptor, or reports that none is left.
func (r *passRx) take() (int, error) {
	if r == nil || r.head == len(r.fds) {
		return -1, errNoDescriptor
	}
	fd := r.fds[r.head]
	r.head++
	return fd, nil
}

// readPassed claims the next received descriptor and preads len(p) bytes
// of it at off into p, then closes it. A missing descriptor or a short
// file is a corrupt frame.
func (r *passRx) readPassed(p []byte, off int64) error {
	fd, err := r.take()
	if err != nil {
		return err
	}
	defer func() { _ = syscall.Close(fd) }() // read-only use: a close error changes nothing read
	for len(p) > 0 {
		n, err := syscall.Pread(fd, p, off)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return fmt.Errorf("transport: passed descriptor: %w", err)
		case n == 0:
			return fmt.Errorf("transport: passed descriptor short of its range: %w", io.ErrUnexpectedEOF)
		}
		p, off = p[n:], off+int64(n)
	}
	return nil
}

// land reads a passed batch entry, whose body is its range, from the next
// received descriptor into a buffer from internal/slab.
func (r *passRx) land(body []byte) ([]byte, error) {
	if len(body) != passLen {
		return nil, fmt.Errorf("transport: corrupt response: passed entry of %d bytes", len(body))
	}
	off := binary.LittleEndian.Uint64(body)
	n := binary.LittleEndian.Uint64(body[8:])
	if off > math.MaxInt64-MaxFrame || n > MaxFrame {
		return nil, fmt.Errorf("transport: corrupt response: passed range %d+%d out of bounds", off, n)
	}
	b := slab.Get(int(n))
	if err := r.readPassed(b, int64(off)); err != nil {
		return nil, err
	}
	return b, nil
}
