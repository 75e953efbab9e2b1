package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one request and produces its response. Handlers must
// be safe for concurrent use; the server invokes one per in-flight request.
type Handler func(*Request) *Response

// ServerOptions tune a server's connection handling.
type ServerOptions struct {
	// WriteTimeout bounds each response write so a dead or stalled client
	// cannot pin a connection goroutine. 0 means DefaultWriteTimeout;
	// negative disables the deadline.
	WriteTimeout time.Duration
}

// Server accepts HVAC protocol connections and dispatches requests, on
// its TCP listener and, on Linux, on the local socket named after it
// (local_linux.go). Both feed the same connection loop.
type Server struct {
	ln           net.Listener
	local        net.Listener // nil off Linux
	handler      Handler
	writeTimeout time.Duration
	localConns   atomic.Int64
	localRefused atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") with the given
// handler and default options, and begins accepting in the background.
func Serve(addr string, handler Handler) (*Server, error) {
	return ServeWith(addr, handler, ServerOptions{})
}

// ServeWith is Serve with explicit options.
func ServeWith(addr string, handler Handler, opts ServerOptions) (*Server, error) {
	if opts.WriteTimeout == 0 {
		opts.WriteTimeout = DefaultWriteTimeout
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	// A taken local name fails the server as a taken port does: a client
	// on this host would otherwise reach whoever holds it.
	local, err := listenLocal(ln.Addr())
	if err != nil {
		_ = ln.Close() // the listen error is the one to report
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &Server{ln: ln, local: local, handler: handler, writeTimeout: opts.WriteTimeout, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop(ln)
	if local != nil {
		s.wg.Add(1)
		go s.acceptLoop(local)
	}
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// LocalConns reports how many connections the server accepted on its
// local socket.
func (s *Server) LocalConns() int64 { return s.localConns.Load() }

// LocalRefused reports how many connections on the local socket the
// server closed unread because the peer was not a trusted user.
func (s *Server) LocalRefused() int64 { return s.localRefused.Load() }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if ln == s.local {
			if !trustedConn(conn) {
				s.localRefused.Add(1)
				_ = conn.Close() // an untrusted peer gets no reply
				continue
			}
			s.localConns.Add(1)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // racing shutdown; socket is abandoned either way
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		// An idle conn may sit in ReadRequestInto indefinitely by design:
		// Close severs every tracked conn, which unblocks the read
		// (TestCallAfterServerClose hangs in Close otherwise).
		go s.serveConn(conn)
	}
}

// reqReadBuf sizes a connection's request buffer: one read picks up a
// call's queued closes with the request behind them, and every request
// but a large batch (a path list) fits, with its length prefix.
const reqReadBuf = 4 << 10

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close() // connection teardown is best-effort
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// One Request per connection: ReadRequestInto overwrites every field,
	// so the loop allocates only the decoded path string per call.
	var req Request
	// Requests are read through a small buffer, so the length prefix and
	// the body ReadRequestInto asks for separately cost one read(2), not
	// two; a batch request longer than the buffer is read straight into
	// its frame. Responses are not buffered.
	br := bufio.NewReaderSize(conn, reqReadBuf)
	// File-payload responses, and replies with passed payloads, go
	// through a per-conn zcWriter (sendfile and sendmsg on Linux), built
	// up front on the local socket, whose requests it marks as able to
	// carry descriptors (pass.go), and lazily otherwise. Slice-payload
	// responses must keep writing to the raw conn: net.Buffers' writev
	// fast path type-asserts the conn itself, and any wrapper would demote
	// it to three separate writes.
	var zw *zcWriter
	if conn.LocalAddr().Network() == "unix" {
		zw = newZCWriter(conn)
		req.local = zw.local
	}
	// held is the releasers of the last reply's file sections that are
	// read after its write (Response.hold): their pages are the socket's,
	// or the peer's to read, until the peer has read the frame, which it
	// has once it sends its next request (PayloadReleaser).
	var held []PayloadReleaser
	for {
		err := ReadRequestInto(br, &req)
		for i, h := range held {
			h.Release()
			held[i] = nil
		}
		held = held[:0]
		if err != nil {
			return // EOF or broken peer
		}
		resp := s.handler(&req)
		if req.Op == OpClose {
			if resp != nil {
				resp.Release() // a close is one-way: its answer goes nowhere
			}
			continue
		}
		if resp == nil {
			resp = &Response{Status: StatusError, Err: "nil response from handler"}
		}
		if s.writeTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)); err != nil {
				resp.Release()
				return
			}
		}
		dst := io.Writer(conn)
		if resp.FilePayload() || resp.passedFiles() > 0 {
			if zw == nil {
				zw = newZCWriter(conn)
			}
			dst = zw
			held = resp.hold(held, zw.canSendfile())
		}
		err = WriteResponse(dst, resp)
		// The response is on the wire (or the link is dead): recycle its
		// pooled payload either way. Handlers hand ownership to the server
		// with their return.
		resp.Release()
		if err != nil {
			for _, h := range held {
				h.Release() // the frame is incomplete: nobody will read its pages
			}
			return
		}
	}
}

// Close stops accepting, severs all connections and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close() // shutting down: accept loop exits on the close either way
	if s.local != nil {
		_ = s.local.Close() // likewise
	}
	for _, c := range conns {
		_ = c.Close() // severing peers; their next I/O reports the break
	}
	s.wg.Wait()
}

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("transport: client closed")

// DefaultPoolSize caps the idle connections a client keeps for reuse:
// two per loader worker for eight workers on one server link, as a large
// read keeps two chunk RPCs in flight per worker.
const DefaultPoolSize = 16

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// ClientOptions tune a TCP client's deadlines and retry behaviour.
type ClientOptions struct {
	// CallTimeout bounds one Call attempt: request write plus response
	// read. 0 means DefaultCallTimeout; negative disables the deadline.
	CallTimeout time.Duration
	// Retry is the per-call retry schedule; zero fields take the package
	// defaults (2 attempts, 2 ms base, 250 ms cap).
	Retry RetryPolicy
}

// Client is a connection-pooling RPC client for one server address. Calls
// are synchronous; the pool bounds concurrent sockets.
type Client struct {
	addr        string
	dialTimeout time.Duration // the constant, which a test shortens
	callTimeout time.Duration
	retry       RetryPolicy
	poolSize    int                 // DefaultPoolSize; 0 in a test keeps no idle connection
	sleep       func(time.Duration) // test seam for backoff pauses

	// localNames are the local socket names dial tries before TCP,
	// resolved once (local_linux.go); tcpOnly skips them (DialTCP).
	localOnce  sync.Once
	localNames []string
	tcpOnly    bool

	retries atomic.Int64
	calls   atomic.Int64

	wrap func(net.Conn) net.Conn // WrapConns; nil: connections as dialled

	mu     sync.Mutex
	idle   []*pconn
	closes []byte // encoded close frames, for the next call's write (queueClose)
	closed bool
}

// respReadBuf sizes a pooled connection's response buffer: one read picks
// up a reply's head and its payload's start, and a payload longer than the
// buffer is read straight into its destination.
const respReadBuf = 4 << 10

// deferCap bounds the close queue's bytes; a close past it leaves at once.
const deferCap = 4 << 10

// pconn is one pooled connection: the socket, its buffered reader, and
// the descriptor receiver under that reader on a local socket (pass.go;
// nil over TCP).
type pconn struct {
	conn net.Conn
	br   *bufio.Reader
	rx   *passRx
}

// Dial returns a client for addr with default options. No connection is
// made until the first Call.
func Dial(addr string) *Client {
	return DialWith(addr, ClientOptions{})
}

// DialWith is Dial with explicit options.
func DialWith(addr string, opts ClientOptions) *Client {
	if opts.CallTimeout == 0 {
		opts.CallTimeout = DefaultCallTimeout
	}
	return &Client{
		addr:        addr,
		dialTimeout: dialTimeout,
		callTimeout: opts.CallTimeout,
		retry:       opts.Retry.withDefaults(),
		poolSize:    DefaultPoolSize,
		sleep:       time.Sleep,
	}
}

// DialTCP is DialWith for a client that never tries the server's local
// socket: every connection is TCP, as a remote client's is. Tests that
// pin what crosses a TCP socket use it.
func DialTCP(addr string, opts ClientOptions) *Client {
	c := DialWith(addr, opts)
	c.tcpOnly = true
	return c
}

// WrapConns passes every connection the client dials, local or TCP,
// through wrap before its first byte: the seam tests count what crosses
// each connection by. It must be called before the first Call, and wrap
// must keep what the client relies on — SyscallConn and the net-package
// conn's vectored write — which a struct embedding the conn it is given
// does.
func (c *Client) WrapConns(wrap func(net.Conn) net.Conn) *Client {
	c.wrap = wrap
	return c
}

// Addr returns the target address.
func (c *Client) Addr() string { return c.addr }

// Retries reports how many retry attempts (beyond each call's first try)
// the client has spent — the retry-budget accounting surfaced in the HVAC
// client's stats.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Calls reports how many RPCs have been issued (retries not included) —
// the per-file-RPC accounting the batch-read benchmarks compare.
func (c *Client) Calls() int64 { return c.calls.Load() }

// getConn takes the most recently pooled connection, or nil when none is
// idle (the caller dials), and moves the queued close frames onto the end
// of out, for the caller's write to carry.
func (c *Client) getConn(out []byte) (*pconn, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, out, ErrClientClosed
	}
	out = append(out, c.closes...)
	c.closes = c.closes[:0]
	n := len(c.idle)
	if n == 0 {
		return nil, out, nil
	}
	pc := c.idle[n-1]
	c.idle = c.idle[:n-1]
	return pc, out, nil
}

// putConn pools pc after a clean exchange, or closes it when the pool is
// full or the client closed.
func (c *Client) putConn(pc *pconn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.poolSize {
		c.idle = append(c.idle, pc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	_ = pc.conn.Close() // the connection is surplus: its close error reaches nobody
}

// queueClose appends req's frame to the close queue. It reports false when
// the client is closed or the frame would take the queue past deferCap:
// the close is then sent at once.
func (c *Client) queueClose(req *Request) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.closes)+4+reqFixedLen+len(req.Path) > deferCap {
		return false
	}
	c.closes = appendRequest(c.closes, req)
	return true
}

// requeue puts back the close frames of a failed attempt, which may or
// may not have reached the server. One that did is run again and finds
// its handle gone; handle numbers are never reused.
func (c *Client) requeue(frames []byte) {
	c.mu.Lock()
	if !c.closed {
		c.closes = append(c.closes, frames...)
	}
	c.mu.Unlock()
}

// dial connects to the server's local socket when it answers on this host,
// else over TCP.
func (c *Client) dial() (*pconn, error) {
	conn := c.dialLocal()
	if conn == nil {
		var err error
		if conn, err = net.DialTimeout("tcp", c.addr, c.dialTimeout); err != nil {
			return nil, err
		}
	}
	if c.wrap != nil {
		conn = c.wrap(conn)
	}
	// The reader is only read in exchange and flush, each after setting
	// the call deadline on conn (TestCallTimeoutOnHungHandler hangs
	// otherwise).
	pc := &pconn{conn: conn}
	var src io.Reader = conn
	if pc.rx = newPassRx(conn); pc.rx != nil {
		src = pc.rx
	}
	pc.br = bufio.NewReaderSize(src, respReadBuf)
	return pc, nil
}

// Call sends req and waits for the response. Each attempt runs under the
// client's call deadline, so a hung server surfaces as a timeout instead
// of stalling the training loop. Connection-level failures (refused,
// reset, deadline, corrupt frame) are retried on a fresh connection under
// the retry policy's exponential backoff; once the attempt budget is
// spent the last error is returned to the caller, which for an HVAC
// client triggers PFS fallback.
//
// A close (OpClose) has no reply: it is queued without any I/O and
// answered at once with a pooled OK response, and its frame leaves with
// the next call's request. A close the queue cannot take (queueClose) is
// written at once, with the queue, and still no reply is read.
func (c *Client) Call(req *Request) (*Response, error) {
	c.calls.Add(1)
	if err := checkPath(req); err != nil {
		return nil, err
	}
	if req.Op == OpClose && c.queueClose(req) {
		return AcquireResponse(), nil
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			c.sleep(c.retry.Backoff(attempt))
		}
		resp, err := c.callOnce(req)
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrClientClosed) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: call %s failed after %d attempts: %w", c.addr, c.retry.MaxAttempts, lastErr)
}

// callOnce runs one attempt on one connection, with the queued closes
// ahead of req in the same write. Any failure closes the connection (it
// may hold a half-written frame) and puts the closes back on the queue;
// only a cleanly completed exchange returns the socket to the pool.
func (c *Client) callOnce(req *Request) (*Response, error) {
	p := getFrameBuf(deferCap + 4 + reqFixedLen + len(req.Path))
	defer putFrameBuf(p)
	pc, out, err := c.getConn((*p)[:0])
	if err != nil {
		return nil, err
	}
	queued := len(out)
	out = appendRequest(out, req)
	if pc == nil {
		if pc, err = c.dial(); err != nil {
			c.requeue(out[:queued])
			return nil, err
		}
	}
	resp, err := c.exchange(pc, req, out)
	if err != nil {
		c.requeue(out[:queued])
		_ = pc.conn.Close() // the exchange's failure is the error that matters
		return nil, err
	}
	if c.callTimeout > 0 {
		if err := pc.conn.SetDeadline(time.Time{}); err != nil {
			_ = pc.conn.Close() // cannot clear the deadline: do not pool the socket
			return resp, nil
		}
	}
	c.putConn(pc)
	return resp, nil
}

// exchange writes out — the queued closes, then req's frame — in one
// write and reads req's reply; a close has none and is answered with a
// pooled OK. On a local socket an exchange whose reply may carry
// descriptors receives with recvmsg, a batch reply's entries are decoded
// here with its passed entries landed (Response.BatchResults), and
// whatever descriptor it received is claimed or closed before it returns:
// the server holds the leases behind them only until this connection's
// next request.
func (c *Client) exchange(pc *pconn, req *Request, out []byte) (*Response, error) {
	if c.callTimeout > 0 {
		if err := pc.conn.SetDeadline(time.Now().Add(c.callTimeout)); err != nil {
			return nil, err
		}
	}
	if _, err := pc.conn.Write(out); err != nil {
		return nil, err
	}
	if req.Op == OpClose {
		return AcquireResponse(), nil
	}
	pc.rx.arm(req)
	defer pc.rx.disarm()
	resp, err := readResponse(pc.br, req.Dst, pc.rx)
	if err != nil || pc.rx == nil || req.Op != OpReadBatch || !mayPass(req) || !resp.OK() {
		return resp, err
	}
	if resp.batch, err = decodeBatch(resp.Data, int(resp.Size), pc.rx); err != nil {
		resp.Release()
		return nil, err
	}
	return resp, nil
}

// Ping round-trips an OpPing, reporting reachability.
func (c *Client) Ping() error {
	resp, err := c.Call(&Request{Op: OpPing})
	if err != nil {
		return err
	}
	err = resp.Error()
	resp.Release()
	return err
}

// Close sends the queued closes on one connection and closes the pooled
// ones. The server has run every queued close when Close returns, unless
// the link failed or the call deadline passed first. In-flight calls may
// fail; one that completes after Close closes its connection.
func (c *Client) Close() {
	c.mu.Lock()
	idle, q := c.idle, c.closes
	c.closed, c.idle, c.closes = true, nil, nil
	c.mu.Unlock()
	if n := len(idle); n > 0 && len(q) > 0 {
		c.flush(idle[n-1], q)
		idle = idle[:n-1]
	} else if len(q) > 0 {
		if pc, err := c.dial(); err == nil {
			c.flush(pc, q)
		}
	}
	for _, pc := range idle {
		_ = pc.conn.Close() // shutting down: nobody reads the close error
	}
}

// flush writes q on pc, half-closes it and reads to EOF, all under the
// call deadline and best-effort, then closes pc. The server answers none
// of q's closes and reaches EOF only after it has run them all.
func (c *Client) flush(pc *pconn, q []byte) {
	if c.callTimeout > 0 {
		_ = pc.conn.SetDeadline(time.Now().Add(c.callTimeout)) // a failed deadline fails the write below
	}
	if _, err := pc.conn.Write(q); err == nil {
		if hc, ok := pc.conn.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
			_, _ = io.Copy(io.Discard, pc.br) // nothing comes back but EOF
		}
	}
	_ = pc.conn.Close() // the closes are sent or lost: nobody reads the close error
}
