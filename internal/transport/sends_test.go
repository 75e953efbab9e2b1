package transport

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"hvac/internal/testutil"
)

// TestServeConnSendsPerExchange counts the socket calls one exchange
// costs the server, which is the same on any machine: one read per
// request, whatever its size class; one write for a response without a
// payload; one vectored write and nothing else for a buffered payload —
// the path every read under core's zeroCopyMin takes; and header write,
// sendfile, tail write for a file payload. The counts are the same on
// either socket, except for a file payload of passMin bytes or more on
// the local socket, which the handler offers to Pass first as core's
// rung 1 does: that leaves as one sendmsg with the file's descriptor
// (pass.go), below the Write counter and outside ZeroCopyStats, and the
// client takes it in one recvmsg.
func TestServeConnSendsPerExchange(t *testing.T) {
	forEachNetwork(t, testServeConnSendsPerExchange)
}

func testServeConnSendsPerExchange(t *testing.T, network string) {
	checkResponses(t)
	data := make([]byte, 512<<10)
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
			if !resp.Pass(req, f, 0, req.Len, nil) {
				resp.SetPayloadFile(f, 0, req.Len, nil, &zc)
			}
		}
		resp.Size = req.Len
		return resp
	}

	sc, client := connPair(t, network)
	conn, cc := testutil.CountConn(sc)
	// The client end receives as a pooled Client connection does: through
	// a buffered reader over the descriptor receiver, armed per request.
	// Its counting form counts the receiver's recvmsg rounds.
	client, clientCounts := testutil.CountConn(client)
	rx := newPassRx(client)
	var src io.Reader = client
	if rx != nil {
		src = rx
	}
	br := bufio.NewReader(src)
	srv := &Server{handler: handler, writeTimeout: DefaultWriteTimeout, conns: make(map[net.Conn]struct{})}
	srv.wg.Add(1)
	go srv.serveConn(conn)
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
		passes     bool // on the local socket: no writes or sendfile, one sendmsg and one recvmsg
	}{
		{"no payload", Request{Op: OpPing, Handle: bare}, 1, 1, 0, false},
		{"32 KiB buffered", Request{Op: OpRead, Handle: buffered, Len: 32 << 10}, 1, 0, 0, false},
		{"32 KiB buffered, long path", Request{Op: OpRead, Handle: buffered, Len: 32 << 10, Path: longPath}, 1, 0, 0, false},
		{"32 KiB buffered, request past the buffer", Request{Op: OpRead, Handle: buffered, Len: 32 << 10, Path: batchPath}, 0, 0, 0, false},
		{"passMin-1 file", Request{Op: OpRead, Handle: file, Len: passMin - 1}, 1, 2, 1, false},
		{"passMin file", Request{Op: OpRead, Handle: file, Len: passMin}, 1, 2, 1, true},
		{"64 KiB file", Request{Op: OpRead, Handle: file, Len: 64 << 10}, 1, 2, 1, true},
		{"128 KiB file", Request{Op: OpRead, Handle: file, Len: 128 << 10}, 1, 2, 1, true},
		{"512 KiB file", Request{Op: OpRead, Handle: file, Len: 512 << 10}, 1, 2, 1, true},
	}
	for _, c := range cases {
		if c.req.Handle == file && runtime.GOOS != "linux" {
			continue // no sendfile: the file payload falls back to pread + three writes
		}
		passes := c.passes && network == "local"
		wantWrites, wantSends := c.wantWrites, c.wantSends
		if passes {
			wantWrites, wantSends = 0, 0
		}
		reads, writes, sends := cc.Reads.Load(), cc.Writes.Load(), zc.Sends.Load()
		rounds, recvs := cc.Sends.Load(), clientCounts.Recvs.Load()
		if err := WriteRequest(client, &c.req); err != nil {
			t.Fatal(err)
		}
		rx.arm(&c.req)
		resp, err := readResponse(br, nil, rx)
		rx.disarm()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !resp.OK() || !bytes.Equal(resp.Data, data[:c.req.Len]) {
			t.Fatalf("%s: status %d, %d payload bytes that differ from the source", c.name, resp.Status, len(resp.Data))
		}
		gotPassed := resp.Passed()
		resp.Release()
		if got := cc.Reads.Load() - reads; c.wantReads != 0 && got != c.wantReads {
			t.Errorf("%s: %d reads for one request, want %d", c.name, got, c.wantReads)
		}
		if got := cc.Writes.Load() - writes; got != wantWrites {
			t.Errorf("%s: %d plain writes for one response, want %d", c.name, got, wantWrites)
		}
		if got := zc.Sends.Load() - sends; got != wantSends {
			t.Errorf("%s: %d zero-copy sends, want %d", c.name, got, wantSends)
		}
		if gotPassed != passes {
			t.Errorf("%s: Passed() = %v, want %v", c.name, gotPassed, passes)
		}
		if !passes {
			continue
		}
		if got := cc.Sends.Load() - rounds; got != 1 {
			t.Errorf("%s: %d sendmsg rounds for one passed reply, want 1", c.name, got)
		}
		if got := clientCounts.Recvs.Load() - recvs; got != 1 {
			t.Errorf("%s: %d recvmsg rounds for one passed reply, want 1", c.name, got)
		}
	}
	if n := zc.Fallbacks.Load(); n != 0 {
		t.Errorf("%d zero-copy fallbacks", n)
	}
}
