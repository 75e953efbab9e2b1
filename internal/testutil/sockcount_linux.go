package testutil

import (
	"io"
	"syscall"
)

// Read reads as the net package does — read(2) until it delivers, parked
// on the poller while the socket is empty — and counts every read(2).
func (c *countingTCP) Read(p []byte) (int, error) {
	rc, err := c.TCPConn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var n int
	var rerr error
	if err := rc.Read(func(fd uintptr) bool {
		for {
			c.ReadCalls.Add(1)
			if n, rerr = syscall.Read(int(fd), p); rerr != syscall.EINTR {
				return rerr != syscall.EAGAIN
			}
		}
	}); err != nil {
		return 0, err
	}
	if rerr != nil {
		return 0, rerr
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	c.read(n)
	return n, nil
}
