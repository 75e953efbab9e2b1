package transport

import (
	"bufio"
	"encoding/binary"
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

// Server accepts HVAC protocol connections and dispatches requests.
type Server struct {
	ln           net.Listener
	handler      Handler
	writeTimeout time.Duration

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
	s := &Server{ln: ln, handler: handler, writeTimeout: opts.WriteTimeout, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
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

// reqReadBuf sizes a connection's request buffer: every request but a
// large batch or plan (a path list) fits, with its length prefix.
const reqReadBuf = 4 << 10

// holdCap bounds the replies serveConn holds back for the next write:
// at least the replies to a client's deferCap of deferred closes.
const holdCap = 4 << 10

// frameBuffered reports whether br already holds the whole next request
// frame, so that reading it costs no system call and cannot block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	lp, _ := br.Peek(4) // buffered: cannot fail
	return uint64(n-4) >= uint64(binary.LittleEndian.Uint32(lp))
}

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
	// its frame. Responses are not buffered, beyond the held replies below.
	br := bufio.NewReaderSize(conn, reqReadBuf)
	// File-payload responses go through a lazily built per-conn zcWriter
	// (sendfile on Linux). Slice-payload responses must keep writing to
	// the raw conn: net.Buffers' writev fast path type-asserts the conn
	// itself, and any wrapper would demote it to three separate writes.
	var zw *zcWriter
	// held is the releaser of the last payload sendfile queued on this
	// connection: its pages are the socket's until the peer has read them,
	// which it has once it sends its next request (PayloadReleaser).
	var held PayloadReleaser
	// pend holds encoded replies without a payload, kept back while the
	// peer's next request was already whole in br: they leave in the same
	// write as the next reply, so a client's deferred close and the
	// request it rode with cost one write here, not two. Only a reply
	// whose successor is already in hand waits, so nothing waits on the
	// peer.
	var pend []byte
	for {
		err := ReadRequestInto(br, &req)
		if held != nil {
			held.Release()
			held = nil
		}
		if err != nil {
			return // EOF or broken peer
		}
		resp := s.handler(&req)
		if resp == nil {
			resp = &Response{Status: StatusError, Err: "nil response from handler"}
		}
		if !resp.FilePayload() && len(resp.Data) == 0 && len(pend)+respHeadLen+2+len(resp.Err) <= holdCap && frameBuffered(br) {
			pend = appendRespTail(appendRespHead(pend, resp, 0), resp.Err)
			resp.Release()
			continue
		}
		if s.writeTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)); err != nil {
				resp.Release()
				return
			}
		}
		dst := io.Writer(conn)
		if resp.FilePayload() {
			if zw == nil {
				zw = newZCWriter(conn)
			}
			dst = zw
			if zw.canSendfile() {
				held, resp.srcRel = resp.srcRel, nil
			}
		}
		err = writeResponse(dst, resp, pend)
		pend = pend[:0]
		// The response is on the wire (or the link is dead): recycle its
		// pooled payload either way. Handlers hand ownership to the server
		// with their return.
		resp.Release()
		if err != nil {
			if held != nil {
				held.Release() // the frame is incomplete: nobody will read its pages
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
	for _, c := range conns {
		_ = c.Close() // severing peers; their next I/O reports the break
	}
	s.wg.Wait()
}

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("transport: client closed")

// DefaultPoolSize is the idle-connection cap of a TCP client when
// ClientOptions.PoolSize is zero.
const DefaultPoolSize = 16

// ClientOptions tune a TCP client's deadlines and retry behaviour.
type ClientOptions struct {
	// DialTimeout bounds connection establishment. 0 means 5 s.
	DialTimeout time.Duration
	// CallTimeout bounds one Call attempt: request write plus response
	// read. 0 means DefaultCallTimeout; negative disables the deadline.
	CallTimeout time.Duration
	// Retry is the per-call retry schedule; zero fields take the package
	// defaults (2 attempts, 2 ms base, 250 ms cap).
	Retry RetryPolicy
	// PoolSize caps the idle connections kept for reuse. 0 means
	// DefaultPoolSize; negative disables pooling (every call dials).
	// Size it to the caller's concurrency: an i×1 deployment driven by w
	// loader workers wants at least 2w idle slots per server link — a
	// large read keeps two chunk RPCs in flight per worker.
	PoolSize int
}

// Client is a connection-pooling RPC client for one server address. Calls
// are synchronous; the pool bounds concurrent sockets.
type Client struct {
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	retry       RetryPolicy
	poolSize    int
	sleep       func(time.Duration) // test seam for backoff pauses

	retries atomic.Int64
	calls   atomic.Int64

	mu     sync.Mutex
	idle   []*pconn
	closed bool
}

// respReadBuf sizes a pooled connection's response buffer: one read picks
// up the replies to a call's deferred requests together with the head of
// its own, and a payload longer than the buffer is read straight into its
// destination.
const respReadBuf = 4 << 10

// deferCap bounds the deferred request bytes one connection carries; a
// deferred call past it is an ordinary round trip.
const deferCap = 4 << 10

// deferred is a run of encoded request frames whose replies nobody waits
// for: they leave ahead of a connection's next request.
type deferred struct {
	frames []byte
	n      int // frames in frames: replies to read and discard
}

// moveTo appends q's frames to dst and empties q.
func (q *deferred) moveTo(dst *deferred) {
	if q.n == 0 {
		return
	}
	dst.frames = append(dst.frames, q.frames...)
	dst.n += q.n
	q.frames, q.n = q.frames[:0], 0
}

// pconn is one pooled connection: the socket — nil until a call takes a
// connection that a deferred request created — its buffered reader, and
// the requests deferred onto it.
type pconn struct {
	conn net.Conn
	br   *bufio.Reader
	q    deferred
}

// Dial returns a client for addr with default options. No connection is
// made until the first Call.
func Dial(addr string) *Client {
	return DialWith(addr, ClientOptions{})
}

// DialWith is Dial with explicit options.
func DialWith(addr string, opts ClientOptions) *Client {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = DefaultCallTimeout
	}
	switch {
	case opts.PoolSize == 0:
		opts.PoolSize = DefaultPoolSize
	case opts.PoolSize < 0:
		opts.PoolSize = 0
	}
	return &Client{
		addr:        addr,
		dialTimeout: opts.DialTimeout,
		callTimeout: opts.CallTimeout,
		retry:       opts.Retry.withDefaults(),
		poolSize:    opts.PoolSize,
		sleep:       time.Sleep,
	}
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

// getConn takes the most recently pooled connection, or a new undialled
// one when the pool is empty.
func (c *Client) getConn() (*pconn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	n := len(c.idle)
	if n == 0 {
		return &pconn{}, nil
	}
	pc := c.idle[n-1]
	c.idle = c.idle[:n-1]
	return pc, nil
}

// putConn pools pc after a clean exchange, or drops it when the pool is
// full or the client closed.
func (c *Client) putConn(pc *pconn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.poolSize {
		c.idle = append(c.idle, pc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.drop(pc)
}

// dial connects pc.
func (c *Client) dial(pc *pconn) error {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return err
	}
	pc.conn = conn
	// The reader is only read in exchange and drop, each after setting the
	// call deadline on conn (TestCallTimeoutOnHungHandler hangs otherwise).
	pc.br = bufio.NewReaderSize(conn, respReadBuf)
	return nil
}

// drop closes pc once its deferred requests are on their way: they are
// written and their replies read under the call deadline, best-effort.
func (c *Client) drop(pc *pconn) {
	if pc.q.n > 0 && (pc.conn != nil || c.dial(pc) == nil) {
		if c.callTimeout > 0 {
			_ = pc.conn.SetDeadline(time.Now().Add(c.callTimeout)) // a failed deadline fails the write below
		}
		if _, err := pc.conn.Write(pc.q.frames); err == nil {
			_ = discardReplies(pc.br, pc.q.n) // nobody reads a deferred reply
		}
	}
	if pc.conn != nil {
		_ = pc.conn.Close() // the connection is surplus: its close error reaches nobody
	}
}

// discardReplies reads and releases n responses from r.
func discardReplies(r *bufio.Reader, n int) error {
	for i := 0; i < n; i++ {
		resp, err := readResponse(r, nil)
		if err != nil {
			return err
		}
		resp.Release()
	}
	return nil
}

// enqueue defers req onto the most recently pooled connection, or onto a
// new, undialled one when none is idle. It reports false when req must be
// an ordinary round trip instead: the client is closed, pooling is off,
// or the connection's deferred bytes would pass deferCap.
func (c *Client) enqueue(req *Request) bool {
	size := 4 + reqFixedLen + len(req.Path)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || size > deferCap {
		return false
	}
	var pc *pconn
	switch n := len(c.idle); {
	case n > 0:
		pc = c.idle[n-1]
	case c.poolSize > 0:
		pc = &pconn{}
		c.idle = append(c.idle, pc)
	default:
		return false
	}
	if len(pc.q.frames)+size > deferCap {
		return false
	}
	pc.q.frames = appendRequest(pc.q.frames, req)
	pc.q.n++
	return true
}

// Call sends req and waits for the response. Each attempt runs under the
// client's call deadline, so a hung server surfaces as a timeout instead
// of stalling the training loop. Connection-level failures (refused,
// reset, deadline, corrupt frame) are retried on a fresh connection under
// the retry policy's exponential backoff; once the attempt budget is
// spent the last error is returned to the caller, which for an HVAC
// client triggers PFS fallback. A failed attempt hands the requests that
// were deferred onto its connection to the next one.
//
// A deferred request (Request.Defer) is queued without any I/O and
// answered at once with a pooled OK response, unless it must go as an
// ordinary round trip (see enqueue).
func (c *Client) Call(req *Request) (*Response, error) {
	if req.Defer && req.Dst != nil {
		return nil, errDeferDst
	}
	c.calls.Add(1)
	if req.Defer && c.enqueue(req) {
		return AcquireResponse(), nil
	}
	var carry deferred
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			c.sleep(c.retry.Backoff(attempt))
		}
		resp, err := c.callOnce(req, &carry)
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

// callOnce runs one request/response exchange on one connection, with
// the connection's deferred requests (and carry, those of earlier failed
// attempts) ahead of it in the same write. Any failure closes the
// connection (it may hold a half-written frame) and leaves in carry every
// deferred request whose reply was not read; only a cleanly completed
// exchange returns the socket to the pool.
func (c *Client) callOnce(req *Request, carry *deferred) (*Response, error) {
	pc, err := c.getConn()
	if err != nil {
		return nil, err
	}
	carry.moveTo(&pc.q)
	if pc.conn == nil {
		if err := c.dial(pc); err != nil {
			pc.q.moveTo(carry)
			return nil, err
		}
	}
	resp, err := c.exchange(pc, req)
	if err != nil {
		pc.q.moveTo(carry)
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

// exchange writes pc's deferred requests and req in one write, reads and
// discards the deferred replies, then reads req's.
func (c *Client) exchange(pc *pconn, req *Request) (*Response, error) {
	if c.callTimeout > 0 {
		if err := pc.conn.SetDeadline(time.Now().Add(c.callTimeout)); err != nil {
			return nil, err
		}
	}
	if err := writeRequest(pc.conn, pc.q.frames, req); err != nil {
		return nil, err
	}
	if err := discardReplies(pc.br, pc.q.n); err != nil {
		return nil, err
	}
	pc.q.frames, pc.q.n = pc.q.frames[:0], 0
	return readResponse(pc.br, req.Dst)
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

// Close releases pooled connections, sending the requests deferred onto
// them first, each connection under the call deadline. In-flight calls
// may fail; one that completes after Close drops its connection the same
// way.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.closed, c.idle = true, nil
	c.mu.Unlock()
	for _, pc := range idle {
		c.drop(pc)
	}
}
