package testutil

import (
	"net"
	"sync/atomic"
	"syscall"
)

// SockCounts counts what is asked of one connection: the Read calls that
// delivered bytes (Reads) and the Write calls (Writes); the rounds of its
// raw sender (Sends): one per call of the sendfile or sendmsg step, which
// sends until the payload is out or the socket is full, so a reply that
// leaves in one system call takes one round and a short write takes a
// second, once the socket drains; the rounds of its raw receiver that end
// its wait (Recvs): one per recvmsg that delivered, so a reply taken in
// one system call is one, however often the receiver found the socket
// empty before it arrived; and, over TCP on Linux, every read(2) its Reads
// made, those that found the socket empty included (ReadCalls), which is
// what /proc/self/io counts for them.
type SockCounts struct {
	Reads, Writes, Sends, Recvs, ReadCalls atomic.Int64
}

func (c *SockCounts) read(n int) {
	if n > 0 {
		c.Reads.Add(1)
	}
}

// countingRaw is a connection's RawConn that counts the rounds of its
// step functions.
type countingRaw struct {
	syscall.RawConn
	c *SockCounts
}

func (r countingRaw) Write(f func(fd uintptr) bool) error {
	return r.RawConn.Write(func(fd uintptr) bool {
		r.c.Sends.Add(1)
		return f(fd)
	})
}

func (r countingRaw) Read(f func(fd uintptr) bool) error {
	return r.RawConn.Read(func(fd uintptr) bool {
		done := f(fd)
		if done {
			r.c.Recvs.Add(1)
		}
		return done
	})
}

// countingTCP and countingUnix count a connection's calls. They embed the
// net-package conn rather than wrapping it so that the socket keeps what
// the transport relies on — net.Buffers' vectored write, which asks its
// destination for an unexported method only a net-package conn (or a
// struct embedding one) has, and SyscallConn for sendfile and the
// descriptor plane. A vectored write therefore goes out below the Write
// counter: a response that left in one writev shows as no Write at all,
// where one written section by section — to a wrapper, or payload apart
// from header — would show as three.
type countingTCP struct {
	*net.TCPConn
	SockCounts
}

func (c *countingTCP) Write(p []byte) (int, error) {
	c.Writes.Add(1)
	return c.TCPConn.Write(p)
}

type countingUnix struct {
	*net.UnixConn
	SockCounts
}

func (c *countingUnix) Read(p []byte) (int, error) {
	n, err := c.UnixConn.Read(p)
	c.read(n)
	return n, err
}

func (c *countingUnix) Write(p []byte) (int, error) {
	c.Writes.Add(1)
	return c.UnixConn.Write(p)
}

func (c *countingUnix) SyscallConn() (syscall.RawConn, error) {
	rc, err := c.UnixConn.SyscallConn()
	if err != nil {
		return nil, err
	}
	return countingRaw{rc, &c.SockCounts}, nil
}

// CountConn wraps a TCP or unix connection in its counting form.
func CountConn(conn net.Conn) (net.Conn, *SockCounts) {
	if uc, ok := conn.(*net.UnixConn); ok {
		cc := &countingUnix{UnixConn: uc}
		return cc, &cc.SockCounts
	}
	cc := &countingTCP{TCPConn: conn.(*net.TCPConn)}
	return cc, &cc.SockCounts
}
