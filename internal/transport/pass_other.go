//go:build !linux || 386

package transport

import (
	"net"
	"os"
	"syscall"
)

// Non-Linux builds have no local socket, and 32-bit x86 Linux reaches
// sendmsg and recvmsg only through socketcall, which this plane does not
// use, so it has no local socket either (local_stub.go): no descriptor is
// ever passed, the server never takes this plane and the client never
// arms a receiver.

func local(net.Conn, syscall.RawConn) bool { return false }

type passTx struct{}

func (w *zcWriter) passFrame([][]byte, []*os.File) error { return errNoDescriptor }

type passRx struct{}

func newPassRx(net.Conn) *passRx { return nil }

func (r *passRx) arm(*Request) {}

func (r *passRx) disarm() {}

func (r *passRx) Read([]byte) (int, error) { return 0, errNoDescriptor }

func (r *passRx) readPassed([]byte, int64) error { return errNoDescriptor }

func (r *passRx) land([]byte) ([]byte, error) { return nil, errNoDescriptor }
