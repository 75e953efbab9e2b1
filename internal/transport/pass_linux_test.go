//go:build linux && !386

package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"hvac/internal/testutil"
)

// TestCmsgFDLayout holds the hand-built control message to the one the
// syscall package builds: for one descriptor, a few, and passCap, the same
// bytes, CMSG_SPACE(4n) of them.
func TestCmsgFDLayout(t *testing.T) {
	f := payloadFile(t, []byte("x"))
	files := make([]*os.File, passCap)
	fds := make([]int, passCap)
	for i := range files {
		files[i], fds[i] = f, int(f.Fd())
	}
	for _, n := range []int{1, 3, passCap} {
		var cm cmsgFDs
		size := cm.set(files[:n])
		got := unsafe.Slice((*byte)(unsafe.Pointer(&cm)), unsafe.Sizeof(cm))[:size]
		if want := syscall.UnixRights(fds[:n]...); !bytes.Equal(got, want) {
			t.Fatalf("%d descriptors: control message % x, want % x", n, got, want)
		}
	}
	if unsafe.Sizeof(cmsgFDs{}) != uintptr(syscall.CmsgSpace(4*passCap)) {
		t.Errorf("cmsgFDs is %d bytes, CMSG_SPACE(4·%d) is %d", unsafe.Sizeof(cmsgFDs{}), passCap, syscall.CmsgSpace(4*passCap))
	}
}

// passFrame encodes an OK reply whose dataLen carries the descriptor flag
// and whose payload section is sec, as a peer would put it on the wire.
func passFrame(sec []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(respFixedLen+len(sec)))
	b = append(b, StatusOK)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, passMin)
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
	sec := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0), passMin)
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
				f := payloadFile(t, patterned(passMin))
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
				resp, err := c.Call(&Request{Op: OpRead, Len: passMin, Dst: make([]byte, passMin)})
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

// batchPassedFrame encodes an OK batch reply of one StatusPassed entry
// whose body is body, as a peer would put it on the wire.
func batchPassedFrame(body []byte) []byte {
	data := AppendBatchEntry(nil, StatusPassed, body)
	b := binary.LittleEndian.AppendUint32(nil, uint32(respFixedLen+len(data)))
	b = append(b, StatusOK)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	b = append(b, data...)
	return binary.LittleEndian.AppendUint16(b, 0)
}

// TestCorruptBatchPassedEntry: a batch entry marked passed with no
// descriptor behind it, or with one and a range cut short, is a corrupt
// frame. On the local socket the call fails and the client drops the
// connection, closing the descriptor unread; over TCP no descriptor can
// come, the reply is not decoded in the exchange, and decoding it fails
// instead. Either way the caller degrades the batch per entry.
func TestCorruptBatchPassedEntry(t *testing.T) {
	rng := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0), passMin)
	for _, tc := range []struct {
		name  string
		frame []byte
		fd    bool
	}{
		{"no descriptor", batchPassedFrame(rng), false},
		{"truncated range", batchPassedFrame(rng[:8]), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachNetwork(t, func(t *testing.T, network string) {
				checkResponses(t)
				testutil.CheckFDs(t)
				f := payloadFile(t, patterned(passMin))
				ln, addr := listenNet(t, network)
				done := make(chan struct{})
				go func() {
					defer close(done)
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					if _, err := ReadRequest(conn); err == nil {
						writeMaybeWithFD(conn, tc.frame, f, tc.fd)
					}
					_, _ = conn.Read(make([]byte, 1)) // until the client drops it
					_ = conn.Close()
				}()
				c := dialNet(network, addr)
				c.retry.MaxAttempts = 1
				resp, err := c.Call(&Request{Op: OpReadBatch, Path: "batch"})
				if network == "local" {
					if err == nil {
						resp.Release()
						t.Fatal("a corrupt passed entry was delivered")
					}
				} else {
					if err != nil {
						t.Fatal(err)
					}
					if _, derr := resp.BatchResults(1); derr == nil {
						t.Error("a passed entry decoded off TCP")
					}
					resp.Release()
				}
				c.Close()
				_ = ln.Close()
				<-done
			})
		})
	}
}

// TestBatchCtruncFailsTheCall: a receiver that cannot take every
// descriptor of a reply — here offered control space for one, the way a
// process out of descriptors is — gets MSG_CTRUNC from the kernel: the
// call fails as a corrupt frame, the descriptors that did arrive are
// closed, and the server releases every passed entry once the connection
// drops.
func TestBatchCtruncFailsTheCall(t *testing.T) {
	checkResponses(t)
	testutil.CheckFDs(t)
	data := patterned(1 << 20)
	f := payloadFile(t, data)
	var rel releaseCounter
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		resp := AcquireResponse()
		resp.Data = resp.Grab(4 * (BatchEntryOverhead + passLen))[:0]
		for i := 0; i < 4; i++ {
			serveBatchSpec(req, resp, f, data, batchEntrySpec{kind: "passed", off: i << 12, n: passMin}, &rel)
		}
		resp.Size = 4
		return resp
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := Dial(srv.Addr())
	defer c.Close()
	c.retry.MaxAttempts = 1
	pooledConn(t, c) // the connection the batch goes out on
	c.idle[0].rx.ctrl = syscall.CmsgSpace(4)
	resp, err := c.Call(&Request{Op: OpReadBatch, Path: "batch"})
	if err == nil {
		resp.Release()
		t.Fatal("a reply short of three descriptors was delivered")
	}
	if !errors.Is(err, errCtrunc) {
		t.Errorf("call failed with %v, want the truncated control message", err)
	}
	for deadline := time.Now().Add(5 * time.Second); rel.n.Load() != 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 passed entries released after the connection dropped", rel.n.Load())
		}
	}
}

// TestServeConnBatchReplyOneSendmsg: on the local socket a warm batch
// reply whose entries are all passed — 16 of 32 KiB, the bench's share per
// server — leaves in one sendmsg with every descriptor, below the Write
// counter: no plain write and no second round of the sender, which a
// short write would take once the socket's send buffer filled.
func TestServeConnBatchReplyOneSendmsg(t *testing.T) {
	checkResponses(t)
	testutil.CheckFDs(t)
	const entries, size, replies = 16, 32 << 10, 50
	data := patterned(entries * size)
	f := payloadFile(t, data)
	specs := make([]batchEntrySpec, entries)
	for i := range specs {
		specs[i] = batchEntrySpec{kind: "passed", off: i * size, n: size, landed: true}
	}
	handler := func(req *Request) *Response {
		resp := AcquireResponse()
		resp.Data = resp.Grab(entries * (BatchEntryOverhead + passLen))[:0]
		for _, e := range specs {
			serveBatchSpec(req, resp, f, data, e, nil)
		}
		resp.Size = entries
		return resp
	}
	sc, client := connPair(t, "local")
	conn, cc := testutil.CountConn(sc)
	rx := newPassRx(client)
	br := bufio.NewReader(rx)
	srv := &Server{handler: handler, writeTimeout: DefaultWriteTimeout, conns: make(map[net.Conn]struct{})}
	srv.wg.Add(1)
	go srv.serveConn(conn)
	defer func() {
		_ = client.Close() // the peer's EOF ends serveConn
		srv.wg.Wait()
	}()
	req := Request{Op: OpReadBatch, Path: "batch"}
	for i := 0; i < replies; i++ {
		if err := WriteRequest(client, &req); err != nil {
			t.Fatal(err)
		}
		rx.arm(&req)
		resp, err := readResponse(br, nil, rx)
		if err == nil {
			resp.batch, err = decodeBatch(resp.Data, entries, rx)
		}
		rx.disarm()
		if err != nil {
			t.Fatal(err)
		}
		checkBatchReply(t, resp, data, specs, true)
		resp.Release()
	}
	if got := cc.Writes.Load(); got != 0 {
		t.Errorf("%d plain writes for %d batch replies, want none", got, replies)
	}
	if got := cc.Sends.Load(); got != replies {
		t.Errorf("%d sendmsg rounds for %d batch replies, want one each", got, replies)
	}
}
