package transport

import (
	"errors"
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

// TestDeferredCallRidesWithNextCall: a deferred close does no I/O — the
// handler has not seen it when Call returns — and reaches the server in
// the same write as the connection's next request, whose Call reads and
// drops the close's reply before its own. The server answers the pair in
// one write: one plain write when neither reply carries a payload, one
// writev (no plain write) when the second does. Client.Close sends a
// close still waiting, and a deferred request naming Dst is refused.
func TestDeferredCallRidesWithNextCall(t *testing.T) {
	checkResponses(t)
	var log opLog
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{handler: logHandler(&log), writeTimeout: DefaultWriteTimeout, conns: make(map[net.Conn]struct{})}
	served := make(chan *countingConn, 1)
	srv.wg.Add(1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srv.wg.Done()
			close(served)
			return
		}
		cc := &countingConn{TCPConn: c.(*net.TCPConn)}
		served <- cc
		srv.serveConn(cc)
	}()
	cli := Dial(ln.Addr().String())
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

	reads, writes := cc.reads.Load(), cc.writes.Load()
	call(&Request{Op: OpClose, Handle: 10, Defer: true})
	if got := log.handles(OpClose); len(got) != 0 || cc.reads.Load() != reads {
		t.Fatalf("a deferred close reached the server on its own: closes %v", got)
	}
	if resp := call(&Request{Op: OpPing, Handle: 2}); resp.Handle != 2 {
		t.Fatalf("the ping got reply %d, want its own (2)", resp.Handle)
	}
	if got := log.handles(OpClose); !slices.Equal(got, []int64{10}) {
		t.Fatalf("closes at the server after the next call: %v, want [10]", got)
	}
	if r, w := cc.reads.Load()-reads, cc.writes.Load()-writes; r != 1 || w != 1 {
		t.Errorf("close + ping cost the server %d reads and %d writes, want 1 and 1", r, w)
	}

	writes = cc.writes.Load()
	call(&Request{Op: OpClose, Handle: 11, Defer: true})
	dst := make([]byte, 32<<10)
	resp := call(&Request{Op: OpRead, Handle: 3, Len: int64(len(dst)), Dst: dst})
	if resp.Handle != 3 || len(resp.Data) != len(dst) || &resp.Data[0] != &dst[0] || dst[len(dst)-1] != byte(len(dst)-1) {
		t.Fatalf("the read got handle %d and %d bytes (landed: %v), want its own 32 KiB in Dst", resp.Handle, len(resp.Data), len(resp.Data) > 0 && &resp.Data[0] == &dst[0])
	}
	if w := cc.writes.Load() - writes; w != 0 {
		t.Errorf("close + 32 KiB read cost the server %d plain writes, want one writev and none", w)
	}

	if _, err := cli.Call(&Request{Op: OpClose, Handle: 12, Defer: true, Dst: dst}); !errors.Is(err, errDeferDst) {
		t.Fatalf("a deferred request with Dst: %v, want %v", err, errDeferDst)
	}
	call(&Request{Op: OpClose, Handle: 13, Defer: true})
	cli.Close()
	if got := log.handles(OpClose); !slices.Equal(got, []int64{10, 11, 13}) {
		t.Fatalf("closes at the server after Client.Close: %v, want [10 11 13]", got)
	}
	if n := cli.Calls(); n != 6 {
		t.Errorf("Calls = %d, want 6 (deferred calls count, a refused one does not)", n)
	}
}

// TestDeferredCloseSurvivesKilledLink kills the server's end of a pooled
// connection with a close deferred onto it. The next Call fails on that
// connection and retries on a fresh one, which carries the close: the
// server sees it exactly once. When the server is gone for good the
// retry fails too and the close is lost with its link; nothing panics
// and every pooled response comes back.
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
	deferClose := func(h int64) {
		resp, err := cli.Call(&Request{Op: OpClose, Handle: h, Defer: true})
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
	deferClose(9)
	if err := ping(); err != nil {
		t.Fatalf("ping after the link died: %v", err)
	}
	if got := log.handles(OpClose); !slices.Equal(got, []int64{9}) {
		t.Fatalf("closes at the server: %v, want [9] (carried to the retry's connection)", got)
	}
	if n := cli.Retries(); n != 1 {
		t.Fatalf("Retries = %d, want 1", n)
	}

	srv.Close()
	deferClose(14)
	if err := ping(); err == nil {
		t.Fatal("ping succeeded against a closed server")
	}
	cli.Close()
	if got := log.handles(OpClose); !slices.Equal(got, []int64{9}) {
		t.Fatalf("closes at the server: %v, want [9]", got)
	}
}

// TestDeferredCloseWithoutPool: with pooling off there is no connection
// to defer onto, so a deferred request is an ordinary round trip.
func TestDeferredCloseWithoutPool(t *testing.T) {
	checkResponses(t)
	var log opLog
	srv, err := Serve("127.0.0.1:0", logHandler(&log))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := DialWith(srv.Addr(), ClientOptions{PoolSize: -1})
	defer cli.Close()
	resp, err := cli.Call(&Request{Op: OpClose, Handle: 5, Defer: true})
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	if got := log.handles(OpClose); !slices.Equal(got, []int64{5}) {
		t.Fatalf("closes at the server: %v, want [5] before Call returned", got)
	}
}

// TestDeferCapBoundsQueue: a connection carries at most deferCap bytes
// of deferred frames; the call past it goes at once, with the queue.
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
	fits := deferCap / (4 + reqFixedLen)
	for h := 0; h <= fits; h++ {
		resp, err := cli.Call(&Request{Op: OpClose, Handle: int64(h), Defer: true})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if got := len(log.handles(OpClose)); got != fits+1 {
		t.Fatalf("%d closes at the server after %d deferred calls, want all of them: the last one past the cap flushes", got, fits+1)
	}
}
