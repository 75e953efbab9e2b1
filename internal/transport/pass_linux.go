//go:build linux

package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// cmsgFD is one SCM_RIGHTS control message carrying one descriptor, laid
// out as CMSG_SPACE(4) bytes: the header, then the descriptor at
// CMSG_DATA (TestCmsgFDLayout holds it to syscall.UnixRights). It is
// built and parsed by hand because UnixRights and
// ParseSocketControlMessage allocate.
type cmsgFD struct {
	hdr syscall.Cmsghdr
	fd  int32
}

// local reports whether conn is a unix socket with a raw descriptor: the
// only kind of connection a descriptor is passed on. A server gets one
// only from its local listener, which admits trusted peers alone.
func local(conn net.Conn, rc syscall.RawConn) bool {
	return rc != nil && conn.LocalAddr().Network() == "unix"
}

// passTx is the server half: sendmsg state kept on the connection's
// zcWriter, with its step bound once, so a pass allocates nothing.
type passTx struct {
	msg    syscall.Msghdr
	iov    syscall.Iovec
	cm     cmsgFD
	frame  []byte // what is left to send
	withFD bool   // the descriptor has not left yet
	serr   error
	step   func(fd uintptr) bool
}

// passPayload sends frame with f's descriptor attached to its first byte,
// through the netpoller as sendPayload does, so the write deadline holds.
func (w *zcWriter) passPayload(frame []byte, f *os.File) error {
	t := &w.tx
	if t.step == nil {
		t.step = w.sendmsgStep
	}
	t.cm.hdr.Level, t.cm.hdr.Type = syscall.SOL_SOCKET, syscall.SCM_RIGHTS
	t.cm.hdr.SetLen(syscall.CmsgLen(4))
	t.cm.fd = int32(f.Fd())
	t.frame, t.withFD, t.serr = frame, true, nil
	err := w.rc.Write(t.step)
	t.frame, t.iov.Base = nil, nil
	if err == nil {
		err = t.serr
	}
	return err
}

// sendmsgStep is the RawConn.Write callback: send until the frame is out
// (the descriptor with the first bytes that leave), the socket would
// block (false: wait for writability), or a real error lands in serr.
func (w *zcWriter) sendmsgStep(fd uintptr) bool {
	t := &w.tx
	for len(t.frame) > 0 {
		t.iov.Base = &t.frame[0]
		t.iov.SetLen(len(t.frame))
		t.msg.Iov = &t.iov
		t.msg.Iovlen = 1
		t.msg.Control, t.msg.Controllen = nil, 0
		if t.withFD {
			t.msg.Control = (*byte)(unsafe.Pointer(&t.cm))
			t.msg.SetControllen(int(unsafe.Sizeof(t.cm)))
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
			t.frame, t.withFD = t.frame[n:], false
		}
	}
	return true
}

// passRx is the client half: the reader under a local connection's
// bufio.Reader. Unarmed it is the connection's own Read, read(2); armed,
// for an exchange whose request mayPass, it receives with recvmsg(2) and
// keeps the descriptor that arrives with the data until the decoder
// claims it (readPassed). read(2) would drop the descriptor, and recvmsg
// is not counted in /proc/self/io, so only such an exchange is armed.
type passRx struct {
	conn  net.Conn
	rc    syscall.RawConn
	armed bool
	fd    int // a received descriptor no frame has claimed; -1 when none

	// recvmsg state, kept here with step bound once so that a receive
	// allocates nothing.
	msg  syscall.Msghdr
	iov  syscall.Iovec
	cm   cmsgFD
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
	r := &passRx{conn: conn, rc: rc, fd: -1}
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

// disarm ends an exchange: back to read(2), and a descriptor no frame
// claimed — the exchange failed before its frame was decoded, or a peer
// sent one unasked — is closed.
func (r *passRx) disarm() {
	if r == nil {
		return
	}
	r.armed = false
	if r.fd >= 0 {
		_ = syscall.Close(r.fd) // never read: nothing to report
		r.fd = -1
	}
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
		r.msg.SetControllen(int(unsafe.Sizeof(r.cm)))
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

var errSecondDescriptor = errors.New("transport: corrupt response: a second descriptor in one exchange")

// keep takes the descriptor a recvmsg delivered, if any. The server sends
// at most one per exchange, so a second before the first was claimed is a
// corrupt stream.
func (r *passRx) keep() {
	if int(r.msg.Controllen) < syscall.CmsgLen(4) || r.cm.hdr.Level != syscall.SOL_SOCKET || r.cm.hdr.Type != syscall.SCM_RIGHTS {
		return
	}
	fd := int(r.cm.fd)
	if r.fd >= 0 {
		_ = syscall.Close(fd) // unasked for: the stream is broken either way
		r.rerr = errSecondDescriptor
		return
	}
	r.fd = fd
}

// readPassed claims the received descriptor and preads len(p) bytes of it
// at off into p, then closes it. A missing descriptor or a short file is a
// corrupt frame.
func (r *passRx) readPassed(p []byte, off int64) error {
	if r == nil || r.fd < 0 {
		return errNoDescriptor
	}
	fd := r.fd
	r.fd = -1
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
