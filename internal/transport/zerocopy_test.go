package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hvac/internal/testutil"
)

// payloadFile writes data to a temp file and opens it for reading.
func payloadFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "payload")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

type countReleaser struct{ n atomic.Int64 }

func (c *countReleaser) Release() { c.n.Add(1) }

// TestFileResponseByteIdentityFallback proves the fd-backed encoding is
// bit-identical to the slice encoding on a non-sendfile writer (the
// SimTransport / non-Linux path) across sizes and error strings.
func TestFileResponseByteIdentityFallback(t *testing.T) {
	for _, size := range []int{0, 1, 511, 4096, 64 << 10, (1 << 20) + 7} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*131 + size)
		}
		f := payloadFile(t, data)

		var want bytes.Buffer
		slice := &Response{Status: StatusOK, Handle: 7, Size: int64(size), Data: data}
		if err := WriteResponse(&want, slice); err != nil {
			t.Fatal(err)
		}

		var got bytes.Buffer
		var st ZeroCopyStats
		fd := &Response{Status: StatusOK, Handle: 7, Size: int64(size)}
		fd.SetPayloadFile(f, 0, int64(size), nil, &st)
		if err := WriteResponse(&got, fd); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("size %d: fd-backed frame differs from slice frame", size)
		}
		if st.Eligible.Load() != 1 || st.Fallbacks.Load() != 1 || st.Sends.Load() != 0 {
			t.Fatalf("size %d: fallback stats = eligible %d sends %d fallbacks %d, want 1/0/1",
				size, st.Eligible.Load(), st.Sends.Load(), st.Fallbacks.Load())
		}
	}
}

// TestFileResponseOverTCP round-trips an fd-backed response through a
// real socket and the normal decoder: the client must be unable to tell
// sendfile served it, and on Linux the payload must have moved through
// the kernel (a send, not a fallback).
func TestFileResponseOverTCP(t *testing.T) {
	const size = 1<<20 + 321
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	f := payloadFile(t, data)
	sconn, cconn := connPair(t, "tcp")

	var st ZeroCopyStats
	rel := &countReleaser{}
	errc := make(chan error, 1)
	go func() {
		resp := &Response{Status: StatusOK, Handle: 3, Size: size}
		resp.SetPayloadFile(f, 0, size, rel, &st)
		err := WriteResponse(newZCWriter(sconn), resp)
		resp.Release()
		errc <- err
	}()

	got, err := ReadResponse(cconn)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if werr := <-errc; werr != nil {
		t.Fatalf("write: %v", werr)
	}
	if got.Handle != 3 || got.Size != size || !bytes.Equal(got.Data, data) {
		t.Fatalf("decoded response differs (handle %d size %d datalen %d)", got.Handle, got.Size, len(got.Data))
	}
	if rel.n.Load() != 1 {
		t.Fatalf("payload releaser ran %d times, want 1", rel.n.Load())
	}
	if el, sends, falls := st.Eligible.Load(), st.Sends.Load(), st.Fallbacks.Load(); el != 1 || sends+falls != el {
		t.Fatalf("stats identity broken: eligible %d sends %d fallbacks %d", el, sends, falls)
	}
	if runtime.GOOS == "linux" {
		if st.Sends.Load() != 1 || st.Bytes.Load() != size {
			t.Fatalf("on linux want a pure sendfile serve, got sends %d bytes %d fallbacks %d",
				st.Sends.Load(), st.Bytes.Load(), st.Fallbacks.Load())
		}
	}
}

// TestFileResponseTruncatedSource shrinks the source under a promised
// payload: the write must fail hard (the frame cannot be completed), and
// the serve must still resolve the stats identity as a fallback.
func TestFileResponseTruncatedSource(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 32<<10)
	f := payloadFile(t, data)
	sconn, cconn := connPair(t, "tcp")

	// Drain whatever partial frame arrives so the writer never blocks.
	go func() {
		buf := make([]byte, 1<<16)
		for {
			if _, err := cconn.Read(buf); err != nil {
				return
			}
		}
	}()

	var st ZeroCopyStats
	resp := &Response{Status: StatusOK, Size: 64 << 10}
	resp.SetPayloadFile(f, 0, 64<<10, nil, &st) // 64 KiB promised, 32 KiB exist
	err := WriteResponse(newZCWriter(sconn), resp)
	resp.Release()
	if err == nil {
		t.Fatal("truncated source produced a nil write error; the stream would be desynchronized")
	}
	if el, sends, falls := st.Eligible.Load(), st.Sends.Load(), st.Fallbacks.Load(); el != 1 || sends != 0 || falls != 1 {
		t.Fatalf("stats = eligible %d sends %d fallbacks %d, want 1/0/1", el, sends, falls)
	}
}

// TestFilePayloadReleasedOnNextRequest pins when the server lets go of a
// file payload's releaser. One that went out through sendfile is held
// while the socket may still hold the file's pages: not after the write,
// but once the peer's next request on that connection has been read, or
// once the connection ends with no further request. A payload copied out
// by a writer that cannot sendfile is released with its response. The
// hold is the same on either socket: sendfile into a unix socket queues
// the file's pages too.
func TestFilePayloadReleasedOnNextRequest(t *testing.T) {
	forEachNetwork(t, testFilePayloadReleasedOnNextRequest)
}

func testFilePayloadReleasedOnNextRequest(t *testing.T, network string) {
	checkResponses(t)
	data := bytes.Repeat([]byte{0x5A}, 64<<10)
	f := payloadFile(t, data)
	rels := make(chan *countReleaser, 1) // one file payload in flight at a time
	handler := func(req *Request) *Response {
		resp := AcquireResponse()
		resp.Status = StatusOK
		if req.Op == OpRead {
			rel := &countReleaser{}
			rels <- rel
			resp.SetPayloadFile(f, 0, int64(len(data)), rel, nil)
		}
		return resp
	}

	sim := NewSim("sim", handler)
	resp, err := sim.Call(&Request{Op: OpRead})
	if err != nil || !bytes.Equal(resp.Data, data) {
		t.Fatalf("read through the in-memory transport: %v", err)
	}
	resp.Release()
	if n := (<-rels).n.Load(); n != 1 {
		t.Fatalf("a payload copied out by a non-sendfile writer: releaser ran %d times after the call, want 1", n)
	}
	if runtime.GOOS != "linux" {
		t.Skip("no sendfile here: every file payload is copied and released with its response")
	}

	srv, err := Serve("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawDial(t, network, srv)
	call := func(op Op) {
		t.Helper()
		if err := WriteRequest(conn, &Request{Op: op}); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponse(conn)
		if err != nil || op == OpRead && !bytes.Equal(resp.Data, data) {
			t.Fatalf("op %d over %s: %v", op, network, err)
		}
		resp.Release()
	}

	call(OpRead)
	sent := <-rels
	if n := sent.n.Load(); n != 0 {
		t.Fatalf("releaser ran %d times once the frame was written, want 0: the socket may still hold its pages", n)
	}
	call(OpPing)
	if n := sent.n.Load(); n != 1 {
		t.Fatalf("releaser ran %d times once the peer asked again, want 1", n)
	}
	call(OpRead)
	last := <-rels
	_ = conn.Close() // the connection ends with no further request
	srv.Close()      // waits for the connection's goroutine
	if n, m := sent.n.Load(), last.n.Load(); n != 1 || m != 1 {
		t.Fatalf("after the connection ended the releasers ran %d and %d times, want 1 and 1", n, m)
	}
}

// TestStalledReaderHitsWriteDeadline: a peer that asks for a file payload
// and never reads it holds its connection's goroutine only until the write
// deadline. The server then closes the connection and releases the
// payload, and no pooled response or descriptor is left behind.
func TestStalledReaderHitsWriteDeadline(t *testing.T) {
	checkResponses(t)
	testutil.CheckFDs(t)
	// Far more than the socket buffers hold once the reader's is pinned
	// small below, so the write has to block.
	const size = 16 << 20
	f := payloadFile(t, make([]byte, size))
	rels := make(chan *countReleaser, 1)
	srv, err := ServeWith("127.0.0.1:0", func(*Request) *Response {
		rel := &countReleaser{}
		rels <- rel
		resp := AcquireResponse()
		resp.Status = StatusOK
		resp.SetPayloadFile(f, 0, size, rel, nil)
		return resp
	}, ServerOptions{WriteTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if err := WriteRequest(conn, &Request{Op: OpRead}); err != nil {
		t.Fatal(err)
	}
	rel := <-rels
	for start := time.Now(); rel.n.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the server is still writing to a stalled reader 5 s into a 100 ms write deadline")
		}
	}
	// The connection is closed: draining it ends before the frame does.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the server kept the stalled reader's connection open")
	}
	if n >= size {
		t.Fatalf("the stalled reader got all %d payload bytes: the write never had to wait", n)
	}
	if got := rel.n.Load(); got != 1 {
		t.Fatalf("payload releaser ran %d times, want 1", got)
	}
}

// TestFileResponseReleaseWithoutWrite covers the dead-connection case for
// every way a reply borrows its payload: serveConn releases the response
// even when the write failed, and each section's releaser must run
// exactly once, with the section list going back to its pool clean.
func TestFileResponseReleaseWithoutWrite(t *testing.T) {
	f := payloadFile(t, []byte("abc"))
	mem := make([]byte, passMin)
	whole := &Request{Op: OpRead, Len: passMin, local: true}
	batch := &Request{Op: OpReadBatch, local: true}
	pass := func(resp *Response, req *Request, rel PayloadReleaser) {
		if !resp.Pass(req, f, 0, passMin, rel) {
			t.Fatal("payload not passed")
		}
	}
	cases := []struct {
		name  string
		rels  int
		build func(resp *Response, rels []countReleaser)
	}{
		{"splice", 1, func(resp *Response, rels []countReleaser) { resp.Splice(mem, &rels[0]) }},
		{"whole read passed", 1, func(resp *Response, rels []countReleaser) { pass(resp, whole, &rels[0]) }},
		{"sendfile range", 1, func(resp *Response, rels []countReleaser) {
			resp.SetPayloadFile(f, 0, 3, &rels[0], nil)
		}},
		{"batch of a splice and passed entries", 3, func(resp *Response, rels []countReleaser) {
			resp.Data = AppendBatchEntry(resp.Data, StatusOK, nil)
			PutBatchEntryHead(resp.Data[len(resp.Data)-BatchEntryOverhead:], StatusOK, len(mem))
			resp.Splice(mem, &rels[0])
			for i := 1; i < len(rels); i++ {
				resp.Data = AppendBatchEntry(resp.Data, StatusOK, nil)
				pass(resp, batch, &rels[i])
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rels := make([]countReleaser, c.rels)
			resp := AcquireResponse()
			resp.Status = StatusOK
			c.build(resp, rels)
			resp.Release()
			for i := range rels {
				if n := rels[i].n.Load(); n != 1 {
					t.Fatalf("releaser %d ran %d times, want 1", i, n)
				}
			}
			// A pooled Response recycled after a borrowed payload must come
			// back clean, and so must the section list it pooled.
			fresh := AcquireResponse()
			defer fresh.Release()
			if fresh.b != nil || fresh.FilePayload() || fresh.passedFiles() != 0 {
				t.Fatal("recycled Response still carries a borrowed section")
			}
			b := borrowedPool.Get().(*borrowed)
			defer borrowedPool.Put(b)
			if len(b.secs) != 0 || b.n != 0 || b.passed != 0 || b.whole || b.st != nil {
				t.Fatalf("pooled section list not clean: %d sections, %d bytes, %d passed, whole %v", len(b.secs), b.n, b.passed, b.whole)
			}
		})
	}
}
