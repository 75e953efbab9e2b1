package transport

import (
	"bytes"
	"sync"
)

// Transport is the client side of one server link: the surface the HVAC
// client (and any decorator, such as the faultnet injector) programs
// against. The socket implementation is *Client (returned by Dial,
// DialWith and DialTCP), over TCP or a same-node local socket;
// *SimTransport is the in-memory implementation used by deterministic
// tests.
type Transport interface {
	// Call sends one request and waits for its response. A non-nil error
	// means the link failed (connection refused, deadline exceeded,
	// corrupt frame, ...); application-level failures travel inside the
	// Response with StatusError. A close (OpClose) is one-way: it is
	// answered OK, possibly before it has been sent, and whatever the
	// server makes of it reaches nobody.
	Call(*Request) (*Response, error)
	// Addr names the peer, for placement and error reporting.
	Addr() string
	// Close releases the link. In-flight calls may fail.
	Close()
}

var (
	_ Transport = (*Client)(nil)
	_ Transport = (*SimTransport)(nil)
)

// SimTransport is an in-memory Transport that invokes a Handler directly,
// but round-trips both messages through the wire codec first, so frame
// sizes, encode errors and decode errors behave exactly as they do over
// TCP. Fault-injection decorators therefore exercise the same failure
// surface in simulated and real clusters.
type SimTransport struct {
	name    string
	handler Handler

	mu     sync.Mutex
	closed bool
	calls  int64
}

// NewSim builds an in-memory transport named name (its Addr) over handler.
func NewSim(name string, handler Handler) *SimTransport {
	return &SimTransport{name: name, handler: handler}
}

// Addr returns the transport's name.
func (s *SimTransport) Addr() string { return s.name }

// Calls reports how many calls have been issued.
func (s *SimTransport) Calls() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Call encodes req, decodes it for the handler, and round-trips the
// response the same way. A close runs at once and, as over a socket,
// answers OK whatever the handler returned.
func (s *SimTransport) Call(req *Request) (*Response, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClientClosed
	}
	s.calls++
	s.mu.Unlock()

	var reqBuf bytes.Buffer
	if err := WriteRequest(&reqBuf, req); err != nil {
		return nil, err
	}
	decoded, err := ReadRequest(&reqBuf)
	if err != nil {
		return nil, err
	}
	resp := s.handler(decoded)
	if req.Op == OpClose {
		if resp != nil {
			resp.Release()
		}
		return AcquireResponse(), nil
	}
	if resp == nil {
		resp = &Response{Status: StatusError, Err: "nil response from handler"}
	}
	var respBuf bytes.Buffer
	err = WriteResponse(&respBuf, resp)
	// Same ownership contract as the TCP server loop: the handler's
	// response is recycled once encoded.
	resp.Release()
	if err != nil {
		return nil, err
	}
	return readResponse(&respBuf, req.Dst, nil)
}

// Close marks the transport closed; later calls fail with ErrClientClosed.
func (s *SimTransport) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
