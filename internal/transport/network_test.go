package transport

import (
	"fmt"
	"io"
	"net"
	"testing"
)

// forEachNetwork runs f as one subtest per socket a server answers on:
// "local", the unix socket a client on the server's own host dials first,
// and "tcp", what every other client dials. A test that pins what an
// exchange costs runs once on each, with the same budgets and counts.
// There is no local socket where LocalSocket says so.
func forEachNetwork(t *testing.T, f func(t *testing.T, network string)) {
	for _, network := range []string{"local", "tcp"} {
		t.Run(network, func(t *testing.T) {
			if network == "local" && !LocalSocket() {
				t.Skip("no local socket in this build")
			}
			f(t, network)
		})
	}
}

// TestLocalConnCarriesDescriptors: a client holds a connection to a
// server's local socket only where it can receive descriptors on it, since
// a server passes every cached payload of passMin bytes or more there.
// Where the descriptor plane is stubbed — off Linux, and on 32-bit x86
// Linux — the client reaches the same server over TCP, and the server
// accepts no local connection.
func TestLocalConnCarriesDescriptors(t *testing.T) {
	checkResponses(t)
	srv, err := Serve("127.0.0.1:0", func(*Request) *Response { return AcquireResponse() })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := Dial(srv.Addr())
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	pc := c.idle[len(c.idle)-1]
	c.mu.Unlock()
	local := pc.conn.LocalAddr().Network() == "unix"
	if local && pc.rx == nil {
		t.Fatal("the client holds a local connection it cannot receive a descriptor on")
	}
	if local != LocalSocket() || (srv.LocalConns() > 0) != LocalSocket() {
		t.Errorf("client on a %s connection, %d local connections at the server; this build has a local socket: %v",
			pc.conn.LocalAddr().Network(), srv.LocalConns(), LocalSocket())
	}
}

// dialNet returns a client that reaches the server at addr over network.
func dialNet(network, addr string) *Client {
	if network == "tcp" {
		return DialTCP(addr, ClientOptions{})
	}
	return Dial(addr)
}

// rawDial connects to srv over network without a Client.
func rawDial(t *testing.T, network string, srv *Server) net.Conn {
	t.Helper()
	ln := srv.ln
	if network == "local" {
		ln = srv.local
	}
	conn, err := net.Dial(ln.Addr().Network(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// listenNet listens on a fresh loopback TCP port, or on the local socket
// named after one, and returns the port's TCP address: the one a client
// is given either way.
func listenNet(t *testing.T, network string) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if network == "local" {
		local, err := listenLocal(ln.Addr())
		_ = ln.Close() // only its port names the local socket
		if err != nil {
			t.Fatal(err)
		}
		ln = local
	}
	return ln, addr
}

// connPair returns a connected (server, client) socket pair over network.
func connPair(t *testing.T, network string) (net.Conn, net.Conn) {
	t.Helper()
	ln, _ := listenNet(t, network)
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial(ln.Addr().Network(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		_ = client.Close()
		t.Fatal(r.err)
	}
	t.Cleanup(func() { _ = r.c.Close(); _ = client.Close() })
	return r.c, client
}

// drainedConn returns the server end of a connPair whose client end reads
// and releases every response on the warm pooled decode path, so the
// peer adds no allocation of its own to the process-wide counter. The
// drainer is joined at cleanup: one still inside ReadResponse holds a
// pooled Response, which the next test would be charged with.
func drainedConn(t *testing.T, network string) net.Conn {
	return drainedConnRx(t, network, false)
}

// drainedConnRx is drainedConn whose drainer, with armed set and on the
// local socket, receives through an armed descriptor receiver, as a
// client does for a read that may be passed a descriptor (pass.go).
func drainedConnRx(t *testing.T, network string, armed bool) net.Conn {
	t.Helper()
	sconn, cconn := connPair(t, network)
	var rx *passRx
	if armed {
		rx = newPassRx(cconn)
		rx.arm(&Request{Len: passMin})
	}
	var src io.Reader = cconn
	if rx != nil {
		src = rx
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		defer rx.disarm()
		for {
			resp, err := readResponse(src, nil, rx)
			if err != nil {
				return
			}
			resp.Release()
		}
	}()
	t.Cleanup(func() {
		_ = cconn.Close()
		_ = sconn.Close()
		<-drained
	})
	return sconn
}

// BenchmarkCallRoundTrip times one warm Call and its answer on each
// socket: the local socket a client on the server's host takes, and TCP,
// which every other client takes. It keeps the TCP round trip measured
// beside the local one, since the epoch benchmark's in-process servers
// are all dialled locally.
//
//	go test -run '^$' -bench CallRoundTrip ./internal/transport
func BenchmarkCallRoundTrip(b *testing.B) {
	for _, network := range []string{"local", "tcp"} {
		for _, size := range []int{0, 32 << 10} {
			b.Run(fmt.Sprintf("%s/%dKiB", network, size>>10), func(b *testing.B) {
				if network == "local" && !LocalSocket() {
					b.Skip("no local socket in this build")
				}
				payload := make([]byte, size)
				srv, err := Serve("127.0.0.1:0", func(*Request) *Response {
					return &Response{Status: StatusOK, Data: payload}
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				c := dialNet(network, srv.Addr())
				defer c.Close()
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp, err := c.Call(&Request{Op: OpPing})
					if err != nil {
						b.Fatal(err)
					}
					resp.Release()
				}
			})
		}
	}
}
