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
		//hvac:blockguard idle conns may sit in ReadRequestInto indefinitely by design; Close severs every tracked conn, unblocking the read
		go s.serveConn(conn)
	}
}

// reqReadBuf sizes a connection's request buffer: every request but a
// large batch or plan (a path list) fits, with its length prefix.
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
	// File-payload responses go through a lazily built per-conn zcWriter
	// (sendfile on Linux). Slice-payload responses must keep writing to
	// the raw conn: net.Buffers' writev fast path type-asserts the conn
	// itself, and any wrapper would demote it to three separate writes.
	var zw *zcWriter
	// held is the releaser of the last payload sendfile queued on this
	// connection: its pages are the socket's until the peer has read them,
	// which it has once it sends its next request (PayloadReleaser).
	var held PayloadReleaser
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
		err = WriteResponse(dst, resp)
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
	idle   []net.Conn
	closed bool
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

func (c *Client) getConn() (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	return net.DialTimeout("tcp", c.addr, c.dialTimeout)
}

func (c *Client) putConn(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= c.poolSize {
		_ = conn.Close() // pool full or closed: surplus socket is discarded
		return
	}
	c.idle = append(c.idle, conn)
}

// Call sends req and waits for the response. Each attempt runs under the
// client's call deadline, so a hung server surfaces as a timeout instead
// of stalling the training loop. Connection-level failures (refused,
// reset, deadline, corrupt frame) are retried on a fresh connection under
// the retry policy's exponential backoff; once the attempt budget is
// spent the last error is returned to the caller, which for an HVAC
// client triggers PFS fallback.
func (c *Client) Call(req *Request) (*Response, error) {
	c.calls.Add(1)
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

// callOnce runs one request/response exchange on one connection. Any
// failure closes the connection (it may hold a half-written frame); only
// a cleanly completed exchange returns the socket to the pool.
func (c *Client) callOnce(req *Request) (*Response, error) {
	conn, err := c.getConn()
	if err != nil {
		return nil, err
	}
	if c.callTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(c.callTimeout)); err != nil {
			_ = conn.Close() // setting the deadline failed; the socket is suspect
			return nil, err
		}
	}
	if err := WriteRequest(conn, req); err != nil {
		_ = conn.Close() // the write failure is the error that matters
		return nil, err
	}
	resp, err := readResponse(conn, req.Dst)
	if err != nil {
		_ = conn.Close() // the read failure is the error that matters
		return nil, err
	}
	if c.callTimeout > 0 {
		if err := conn.SetDeadline(time.Time{}); err != nil {
			_ = conn.Close() // cannot clear the deadline: do not pool the socket
			return resp, nil
		}
	}
	c.putConn(conn)
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

// Close releases pooled connections. In-flight calls may fail.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.idle {
		_ = conn.Close() // idle pool teardown is best-effort
	}
	c.idle = nil
}
