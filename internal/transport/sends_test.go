package transport

import (
	"bytes"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
)

// countingConn counts the Read and Write calls serveConn makes on a
// connection. It embeds the *net.TCPConn rather than wrapping it so that
// the socket keeps what serveConn relies on — net.Buffers' vectored
// write, which asks its destination for an unexported method only a
// net-package conn (or a struct embedding one) has, and SyscallConn for
// sendfile. A vectored write therefore goes out below the Write counter:
// a response that left in one writev shows as no Write at all, where one
// written section by section — to a wrapper, or payload apart from
// header — would show as three.
type countingConn struct {
	*net.TCPConn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

// TestServeConnSendsPerExchange counts the socket calls one exchange
// costs the server, which is the same on any machine: one read per
// request, whatever its size class; one write for a response without a
// payload; one vectored write and nothing else for a buffered payload —
// the path every read under core's zeroCopyMin takes; and header write,
// sendfile, tail write for a file payload.
func TestServeConnSendsPerExchange(t *testing.T) {
	checkResponses(t)
	data := make([]byte, 128<<10)
	for i := range data {
		data[i] = byte(i*131 + 5)
	}
	f := payloadFile(t, data)
	var zc ZeroCopyStats
	const (
		bare = iota
		buffered
		file
	)
	handler := func(req *Request) *Response {
		resp := AcquireResponse()
		switch req.Handle {
		case buffered:
			buf := resp.Grab(int(req.Len))
			if err := readPayloadAt(f, buf, 0); err != nil {
				t.Error(err)
			}
			resp.Data = buf
		case file:
			resp.SetPayloadFile(f, 0, req.Len, nil, &zc)
		}
		resp.Size = req.Len
		return resp
	}

	sc, client := tcpPair(t)
	cc := &countingConn{TCPConn: sc.(*net.TCPConn)}
	srv := &Server{handler: handler, writeTimeout: DefaultWriteTimeout, conns: make(map[net.Conn]struct{})}
	srv.wg.Add(1)
	go srv.serveConn(cc)
	defer func() {
		_ = client.Close() // the peer's EOF ends serveConn
		srv.wg.Wait()
	}()

	longPath := string(bytes.Repeat([]byte("p"), 3000))          // still inside the request buffer
	batchPath := string(bytes.Repeat([]byte("p"), 5*reqReadBuf)) // a path list that is not
	cases := []struct {
		name       string
		req        Request
		wantReads  int64 // 0: as many as the kernel hands the frame over in
		wantWrites int64
		wantSends  int64
	}{
		{"no payload", Request{Op: OpPing, Handle: bare}, 1, 1, 0},
		{"32 KiB buffered", Request{Op: OpRead, Handle: buffered, Len: 32 << 10}, 1, 0, 0},
		{"32 KiB buffered, long path", Request{Op: OpRead, Handle: buffered, Len: 32 << 10, Path: longPath}, 1, 0, 0},
		{"32 KiB buffered, request past the buffer", Request{Op: OpRead, Handle: buffered, Len: 32 << 10, Path: batchPath}, 0, 0, 0},
		{"64 KiB file", Request{Op: OpRead, Handle: file, Len: 64 << 10}, 1, 2, 1},
		{"128 KiB file", Request{Op: OpRead, Handle: file, Len: 128 << 10}, 1, 2, 1},
	}
	for _, c := range cases {
		if c.req.Handle == file && runtime.GOOS != "linux" {
			continue // no sendfile: the file payload falls back to pread + three writes
		}
		reads, writes, sends := cc.reads.Load(), cc.writes.Load(), zc.Sends.Load()
		if err := WriteRequest(client, &c.req); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponse(client)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !resp.OK() || !bytes.Equal(resp.Data, data[:c.req.Len]) {
			t.Fatalf("%s: status %d, %d payload bytes that differ from the source", c.name, resp.Status, len(resp.Data))
		}
		resp.Release()
		if got := cc.reads.Load() - reads; c.wantReads != 0 && got != c.wantReads {
			t.Errorf("%s: %d reads for one request, want %d", c.name, got, c.wantReads)
		}
		if got := cc.writes.Load() - writes; got != c.wantWrites {
			t.Errorf("%s: %d plain writes for one response, want %d", c.name, got, c.wantWrites)
		}
		if got := zc.Sends.Load() - sends; got != c.wantSends {
			t.Errorf("%s: %d sendfile sends, want %d", c.name, got, c.wantSends)
		}
	}
	if n := zc.Fallbacks.Load(); n != 0 {
		t.Errorf("%d zero-copy fallbacks", n)
	}
}
