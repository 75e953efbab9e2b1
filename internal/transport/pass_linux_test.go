//go:build linux

package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"hvac/internal/testutil"
)

// TestCmsgFDLayout holds the hand-built control message to the one the
// syscall package builds: the same bytes, CMSG_SPACE(4) of them.
func TestCmsgFDLayout(t *testing.T) {
	var cm cmsgFD
	cm.hdr.Level, cm.hdr.Type = syscall.SOL_SOCKET, syscall.SCM_RIGHTS
	cm.hdr.SetLen(syscall.CmsgLen(4))
	cm.fd = 7
	got := unsafe.Slice((*byte)(unsafe.Pointer(&cm)), unsafe.Sizeof(cm))
	if want := syscall.UnixRights(7); !bytes.Equal(got, want) {
		t.Fatalf("control message % x, want % x", got, want)
	}
}

// passFrame encodes an OK reply whose dataLen carries the descriptor flag
// and whose payload section is sec, as a peer would put it on the wire.
func passFrame(sec []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(respFixedLen+len(sec)))
	b = append(b, StatusOK)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, descMin)
	b = binary.LittleEndian.AppendUint32(b, passLen|passFlag)
	b = append(b, sec...)
	return binary.LittleEndian.AppendUint16(b, 0)
}

// TestCorruptPassFrameDropsConn: a peer that answers a read with a
// descriptor frame and no descriptor, or with one whose (off, len) section
// is cut short, fails the call; the client drops the connection (each
// attempt dials anew), and no pooled response or descriptor outlives it.
// On the local socket the second frame arrives with a real descriptor
// attached, which the client must close unread.
func TestCorruptPassFrameDropsConn(t *testing.T) {
	sec := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0), descMin)
	for _, tc := range []struct {
		name  string
		frame []byte
		fd    bool // attach a descriptor (local socket only)
	}{
		{"no descriptor", passFrame(sec), false},
		{"truncated range", passFrame(sec[:8]), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachNetwork(t, func(t *testing.T, network string) {
				checkResponses(t)
				testutil.CheckFDs(t)
				f := payloadFile(t, patterned(descMin))
				ln, addr := listenNet(t, network)
				accepted := make(chan int, 1)
				go func() {
					n := 0
					defer func() { accepted <- n }()
					for {
						conn, err := ln.Accept()
						if err != nil {
							return
						}
						n++
						if _, err := ReadRequest(conn); err == nil {
							writeMaybeWithFD(conn, tc.frame, f, tc.fd)
						}
						_, _ = conn.Read(make([]byte, 1)) // until the client drops it
						_ = conn.Close()
					}
				}()
				c := dialNet(network, addr)
				c.retry.MaxAttempts = 2
				c.sleep = func(d time.Duration) {}
				resp, err := c.Call(&Request{Op: OpRead, Len: descMin, Dst: make([]byte, descMin)})
				if err == nil {
					resp.Release()
					t.Fatal("a corrupt descriptor frame was delivered")
				}
				c.Close()
				_ = ln.Close()
				if n := <-accepted; n != 2 {
					t.Errorf("%d connections for two attempts: a corrupt frame's connection was reused", n)
				}
			})
		})
	}
}

// writeMaybeWithFD writes frame to conn, with f's descriptor attached
// when withFD is set and conn is a unix socket.
func writeMaybeWithFD(conn net.Conn, frame []byte, f interface{ Fd() uintptr }, withFD bool) {
	if uc, ok := conn.(*net.UnixConn); ok && withFD {
		_, _, _ = uc.WriteMsgUnix(frame, syscall.UnixRights(int(f.Fd())), nil) // the client's failure is what the test reads
		return
	}
	_, _ = conn.Write(frame) // likewise
}
