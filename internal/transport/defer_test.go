package transport

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"hvac/internal/testutil"
)

// opLog records the (op, handle) of every request a handler sees, in
// arrival order.
type opLog struct {
	mu   sync.Mutex
	seen []Request
}

func (l *opLog) add(req *Request) {
	l.mu.Lock()
	l.seen = append(l.seen, Request{Op: req.Op, Handle: req.Handle})
	l.mu.Unlock()
}

func (l *opLog) handles(op Op) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var hs []int64
	for _, r := range l.seen {
		if r.Op == op {
			hs = append(hs, r.Handle)
		}
	}
	return hs
}

// logHandler answers every request with its own handle, and an OpRead
// with req.Len bytes of payload.
func logHandler(l *opLog) Handler {
	return func(req *Request) *Response {
		l.add(req)
		resp := AcquireResponse()
		resp.Handle = req.Handle
		if req.Op == OpRead {
			resp.Data = resp.Grab(int(req.Len))
			for i := range resp.Data {
				resp.Data[i] = byte(i)
			}
		}
		return resp
	}
}

// TestDeferredCallRidesWithNextCall: a close is queued and does no I/O —
// the handler has not seen it when Call returns — and reaches the server
// in the same write as the link's next request. The server answers the
// close with nothing, so the pair costs it one read and one write: one
// plain write when the request's reply carries no payload, one writev (no
// plain write) when it does. Client.Close sends a close still queued, and
// the server has run it when Close returns.
func TestDeferredCallRidesWithNextCall(t *testing.T) {
	forEachNetwork(t, testDeferredCallRidesWithNextCall)
}

func testDeferredCallRidesWithNextCall(t *testing.T, network string) {
	checkResponses(t)
	var log opLog
	ln, addr := listenNet(t, network)
	srv := &Server{handler: logHandler(&log), writeTimeout: DefaultWriteTimeout, conns: make(map[net.Conn]struct{})}
	served := make(chan *testutil.SockCounts, 1)
	srv.wg.Add(1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srv.wg.Done()
			close(served)
			return
		}
		conn, cc := testutil.CountConn(c)
		served <- cc
		srv.serveConn(conn)
	}()
	cli := dialNet(network, addr) // finds the local socket named after addr itself
	defer func() {
		cli.Close() // the peer's EOF ends serveConn
		_ = ln.Close()
		srv.wg.Wait()
	}()

	call := func(req *Request) *Response {
		t.Helper()
		resp, err := cli.Call(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(resp.Release)
		if !resp.OK() {
			t.Fatalf("op %d: %v", req.Op, resp.Error())
		}
		return resp
	}
	call(&Request{Op: OpPing, Handle: 1})
	cc := <-served
	if cc == nil {
		t.Fatal("accept failed")
	}

	reads, writes := cc.Reads.Load(), cc.Writes.Load()
	call(&Request{Op: OpClose, Handle: 10})
	if got := log.handles(OpClose); len(got) != 0 || cc.Reads.Load() != reads {
		t.Fatalf("a queued close reached the server on its own: closes %v", got)
	}
	if resp := call(&Request{Op: OpPing, Handle: 2}); resp.Handle != 2 {
		t.Fatalf("the ping got reply %d, want its own (2)", resp.Handle)
	}
	if got := log.handles(OpClose); !slices.Equal(got, []int64{10}) {
		t.Fatalf("closes at the server after the next call: %v, want [10]", got)
	}
	if r, w := cc.Reads.Load()-reads, cc.Writes.Load()-writes; r != 1 || w != 1 {
		t.Errorf("close + ping cost the server %d reads and %d writes, want 1 and 1", r, w)
	}

	writes = cc.Writes.Load()
	call(&Request{Op: OpClose, Handle: 11})
	dst := make([]byte, 32<<10)
	resp := call(&Request{Op: OpRead, Handle: 3, Len: int64(len(dst)), Dst: dst})
	if resp.Handle != 3 || len(resp.Data) != len(dst) || &resp.Data[0] != &dst[0] || dst[len(dst)-1] != byte(len(dst)-1) {
		t.Fatalf("the read got handle %d and %d bytes (landed: %v), want its own 32 KiB in Dst", resp.Handle, len(resp.Data), len(resp.Data) > 0 && &resp.Data[0] == &dst[0])
	}
	if w := cc.Writes.Load() - writes; w != 0 {
		t.Errorf("close + 32 KiB read cost the server %d plain writes, want one writev and none", w)
	}

	call(&Request{Op: OpClose, Handle: 13})
	cli.Close()
	if got := log.handles(OpClose); !slices.Equal(got, []int64{10, 11, 13}) {
		t.Fatalf("closes at the server after Client.Close: %v, want [10 11 13]", got)
	}
	if n := cli.Calls(); n != 6 {
		t.Errorf("Calls = %d, want 6 (closes count)", n)
	}
}

// TestDeferredCloseSurvivesKilledLink kills the server's end of a pooled
// connection with a close queued. The next Call fails on that connection,
// puts the close back on the queue and retries on a fresh connection,
// which carries it: the server sees it exactly once. When the server is
// gone for good the retry fails too and the close is lost with its link;
// nothing panics and every pooled response comes back.
func TestDeferredCloseSurvivesKilledLink(t *testing.T) {
	checkResponses(t)
	testutil.CheckLeaks(t)
	var log opLog
	srv, err := Serve("127.0.0.1:0", logHandler(&log))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialWith(srv.Addr(), ClientOptions{CallTimeout: 5 * time.Second, Retry: RetryPolicy{MaxAttempts: 2}})
	defer cli.Close()
	cli.sleep = func(time.Duration) {}
	ping := func() error {
		resp, err := cli.Call(&Request{Op: OpPing})
		if err == nil {
			resp.Release()
		}
		return err
	}
	queueClose := func(h int64) {
		resp, err := cli.Call(&Request{Op: OpClose, Handle: h})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if err := ping(); err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	for c := range srv.conns {
		_ = c.Close() // the server's end only: the client's pooled socket is now dead
	}
	srv.mu.Unlock()
	queueClose(9)
	if err := ping(); err != nil {
		t.Fatalf("ping after the link died: %v", err)
	}
	if got := log.handles(OpClose); !slices.Equal(got, []int64{9}) {
		t.Fatalf("closes at the server: %v, want [9] (put back and carried by the retry)", got)
	}
	if n := cli.Retries(); n != 1 {
		t.Fatalf("Retries = %d, want 1", n)
	}

	srv.Close()
	queueClose(14)
	if err := ping(); err == nil {
		t.Fatal("ping succeeded against a closed server")
	}
	cli.Close()
	if got := log.handles(OpClose); !slices.Equal(got, []int64{9}) {
		t.Fatalf("closes at the server: %v, want [9]", got)
	}
}

// TestDeferredCloseWithoutPool: with pooling off a close is queued all
// the same, on the client rather than on a connection: the next call's
// fresh connection carries it, and Client.Close dials one for what is
// left.
func TestDeferredCloseWithoutPool(t *testing.T) {
	checkResponses(t)
	var log opLog
	srv, err := Serve("127.0.0.1:0", logHandler(&log))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr())
	cli.poolSize = 0 // every call dials
	defer cli.Close()
	queueClose := func(h int64) {
		resp, err := cli.Call(&Request{Op: OpClose, Handle: h})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	queueClose(5)
	if got := log.handles(OpClose); len(got) != 0 {
		t.Fatalf("closes at the server right after the close: %v, want it queued", got)
	}
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := log.handles(OpClose); !slices.Equal(got, []int64{5}) {
		t.Fatalf("closes at the server after the ping: %v, want [5]", got)
	}
	queueClose(6)
	cli.Close()
	if got := log.handles(OpClose); !slices.Equal(got, []int64{5, 6}) {
		t.Fatalf("closes at the server after Client.Close: %v, want [5 6]", got)
	}
}

// TestDeferCapBoundsQueue: the queue holds at most deferCap bytes of
// close frames; the close past it leaves at once, with the queue ahead of
// it and no reply read, so the connection stays in step with the next
// call.
func TestDeferCapBoundsQueue(t *testing.T) {
	checkResponses(t)
	var log opLog
	srv, err := Serve("127.0.0.1:0", logHandler(&log))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr())
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	closeHandle := func(h int) {
		resp, err := cli.Call(&Request{Op: OpClose, Handle: int64(h)})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	fits := deferCap / (4 + reqFixedLen)
	for h := 0; h < fits; h++ {
		closeHandle(h)
	}
	if got := len(log.handles(OpClose)); got != 0 {
		t.Fatalf("%d closes at the server with the queue not yet full, want 0", got)
	}
	closeHandle(fits)
	for deadline := time.Now().Add(5 * time.Second); len(log.handles(OpClose)) != fits+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d closes at the server after %d closes, want all of them: the last one past the cap sends the queue", len(log.handles(OpClose)), fits+1)
		}
	}
	resp, err := cli.Call(&Request{Op: OpPing, Handle: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if resp.Handle != 77 {
		t.Fatalf("the ping after the cap got reply %d, want its own (77)", resp.Handle)
	}
}
