//go:build linux && !386

package transport

import (
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hvac/internal/testutil"
)

// pooledConn returns the connection cli's last call went out on.
func pooledConn(t *testing.T, cli *Client) net.Conn {
	t.Helper()
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	cli.mu.Lock()
	defer cli.mu.Unlock()
	return cli.idle[len(cli.idle)-1].conn
}

// serverConns returns the connections srv is serving.
func serverConns(srv *Server) []net.Conn {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	var conns []net.Conn
	for c := range srv.conns {
		conns = append(conns, c)
	}
	return conns
}

// TestLocalSocketPreferred: a client of a server on 127.0.0.1 connects to
// the server's local socket, and the server accepts no TCP connection.
func TestLocalSocketPreferred(t *testing.T) {
	checkResponses(t)
	srv, err := ServeWith("127.0.0.1:0", echoHandler, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got, want := srv.local.Addr().String(), "@hvac/"+srv.Addr(); got != want {
		t.Fatalf("local socket %q, want %q", got, want)
	}
	cli := Dial(srv.Addr())
	defer cli.Close()
	if c, ok := pooledConn(t, cli).(*net.UnixConn); !ok {
		t.Fatalf("the client's connection is a %T, want a *net.UnixConn", c)
	}
	for _, c := range serverConns(srv) {
		if _, ok := c.(*net.UnixConn); !ok {
			t.Errorf("the server accepted a %T", c)
		}
	}
	if n := srv.LocalConns(); n != 1 {
		t.Errorf("LocalConns = %d, want 1", n)
	}
}

// TestWildcardListenerReachedLocally: a server bound to every address
// claims the wildcard name, which a client reaches through loopback and
// through any of this host's own addresses.
func TestWildcardListenerReachedLocally(t *testing.T) {
	checkResponses(t)
	srv, err := Serve(":0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	port := strconv.Itoa(srv.ln.Addr().(*net.TCPAddr).Port)
	if got, want := srv.local.Addr().String(), "@hvac/*:"+port; got != want {
		t.Fatalf("local socket %q, want %q", got, want)
	}
	hosts := []string{"127.0.0.1", "localhost"}
	for _, ip := range hostIPs() {
		if !ip.IsLoopback() && ip.To4() != nil {
			hosts = append(hosts, ip.String()) // one of this host's own addresses
			break
		}
	}
	for i, host := range hosts {
		cli := Dial(net.JoinHostPort(host, port))
		if c, ok := pooledConn(t, cli).(*net.UnixConn); !ok {
			t.Errorf("%s: the client's connection is a %T, want a *net.UnixConn", host, c)
		}
		cli.Close()
		if n := srv.LocalConns(); n != int64(i+1) {
			t.Errorf("%s: LocalConns = %d, want %d", host, n, i+1)
		}
	}
}

// TestLocalNameTakenFailsServe: a server whose local name is taken fails
// to start, as it does on a taken port, and leaves its TCP port free.
func TestLocalNameTakenFailsServe(t *testing.T) {
	testutil.CheckFDs(t)
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	_ = probe.Close() // only its port is wanted
	host, port, _ := net.SplitHostPort(addr)
	squat, err := net.Listen("unix", localName(host, port))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(addr, echoHandler)
	_ = squat.Close()
	if err == nil {
		srv.Close()
		t.Fatalf("Serve(%s) succeeded with its local name taken", addr)
	}
	// Another process may have taken the probed port meanwhile: then the
	// TCP bind failed and the name check never ran.
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Net != "unix" {
		t.Fatalf("Serve(%s) failed, but not on its local name: %v", addr, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("the failed server kept its TCP port: %v", err)
	}
	_ = ln.Close()
}

// tcpOnlyServer serves handler on a bare TCP listener, with no local
// socket: what a server on another host looks like from this one.
func tcpOnlyServer(t *testing.T, handler Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{ln: ln, handler: handler, writeTimeout: DefaultWriteTimeout, conns: make(map[net.Conn]struct{})}
	srv.wg.Add(1)
	go srv.acceptLoop(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String()
}

// TestForeignPeerRefused: a client keeps a local connection only from a
// peer running as its own user or root. A name held by anyone else gets
// its connection closed before a request is written, and the client
// dials TCP.
func TestForeignPeerRefused(t *testing.T) {
	checkResponses(t)
	own := uint32(os.Getuid())
	if !trustedPeer(own) || !trustedPeer(0) || trustedPeer(own+1) {
		t.Fatalf("trustedPeer: own uid %v, root %v, uid %d %v; want true, true, false",
			trustedPeer(own), trustedPeer(0), own+1, trustedPeer(own+1))
	}
	orig := peerUID
	peerUID = func(*net.UnixConn) (uint32, error) { return own + 1, nil }
	defer func() { peerUID = orig }()

	addr := tcpOnlyServer(t, echoHandler)
	host, port, _ := net.SplitHostPort(addr)
	squat, err := net.Listen("unix", localName(host, port))
	if err != nil {
		t.Fatal(err)
	}
	defer squat.Close()
	got := make(chan int64, 1)
	go func() {
		c, err := squat.Accept()
		if err != nil {
			got <- -1
			return
		}
		n, _ := io.Copy(io.Discard, c)
		_ = c.Close()
		got <- n
	}()
	cli := Dial(addr)
	defer cli.Close()
	if c, ok := pooledConn(t, cli).(*net.TCPConn); !ok {
		t.Fatalf("the client's connection is a %T, want a *net.TCPConn", c)
	}
	if n := <-got; n != 0 {
		t.Fatalf("the foreign peer received %d bytes, want a connection closed before any", n)
	}
}

// TestForeignClientRefused: a server serves a local connection only from
// a peer running as its own user or root. Another user's connection is
// closed before a frame is read from it, and counted; a trusted client
// is still served on the local socket afterwards.
func TestForeignClientRefused(t *testing.T) {
	checkResponses(t)
	testutil.CheckFDs(t)
	own := uint32(os.Getuid())
	var foreign atomic.Bool
	orig := peerUID
	peerUID = func(c *net.UnixConn) (uint32, error) {
		if foreign.Load() {
			return own + 1, nil
		}
		return orig(c)
	}
	defer func() { peerUID = orig }()
	var served atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		served.Add(1)
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	foreign.Store(true)
	conn, err := net.Dial("unix", srv.local.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second)) // a served peer would idle on
	_ = WriteRequest(conn, &Request{Op: OpPing})              // may already meet the close
	n, _ := io.Copy(io.Discard, conn)                         // EOF or a reset: the frame was never read
	_ = conn.Close()
	foreign.Store(false)
	if n != 0 {
		t.Fatalf("the foreign client received %d bytes, want a connection closed before any", n)
	}
	if got := srv.LocalRefused(); got != 1 {
		t.Fatalf("LocalRefused = %d, want 1", got)
	}
	if got := served.Load(); got != 0 {
		t.Fatalf("the handler ran %d times for a refused peer", got)
	}

	cli := Dial(srv.Addr())
	defer cli.Close()
	if c, ok := pooledConn(t, cli).(*net.UnixConn); !ok {
		t.Fatalf("the client's connection is a %T, want a *net.UnixConn", c)
	}
	if got, refused := srv.LocalConns(), srv.LocalRefused(); got != 1 || refused != 1 {
		t.Fatalf("LocalConns = %d, LocalRefused = %d after a trusted client; want 1 and 1", got, refused)
	}
}

// TestRemoteAddressDialsTCP: an address no local name answers for is
// dialled over TCP, as before the local socket.
func TestRemoteAddressDialsTCP(t *testing.T) {
	checkResponses(t)
	cli := Dial(tcpOnlyServer(t, echoHandler))
	defer cli.Close()
	if c, ok := pooledConn(t, cli).(*net.TCPConn); !ok {
		t.Fatalf("the client's connection is a %T, want a *net.TCPConn", c)
	}
}

// TestLocalCandidates: each resolved IP yields its own name, in order, and
// the wildcard name follows the first IP that is loopback or the host's
// own. A remote IP never yields the wildcard name.
func TestLocalCandidates(t *testing.T) {
	host := []net.IP{net.ParseIP("192.0.2.7"), net.ParseIP("2001:db8::7")}
	ips := func(s ...string) []net.IP {
		var out []net.IP
		for _, a := range s {
			out = append(out, net.ParseIP(a))
		}
		return out
	}
	for _, tc := range []struct {
		ips  []net.IP
		want []string
	}{
		{ips("127.0.0.1"), []string{"@hvac/127.0.0.1:7070", "@hvac/*:7070"}},
		{ips("::1"), []string{"@hvac/[::1]:7070", "@hvac/*:7070"}},
		{ips("::ffff:127.0.0.1"), []string{"@hvac/127.0.0.1:7070", "@hvac/*:7070"}},
		{ips("192.0.2.7"), []string{"@hvac/192.0.2.7:7070", "@hvac/*:7070"}},
		{ips("2001:db8::7"), []string{"@hvac/[2001:db8::7]:7070", "@hvac/*:7070"}},
		{ips("198.51.100.1"), []string{"@hvac/198.51.100.1:7070"}},
		{ips("198.51.100.1", "2001:db8::1"), []string{"@hvac/198.51.100.1:7070", "@hvac/[2001:db8::1]:7070"}},
		{ips("198.51.100.1", "127.0.0.1", "::1"), []string{"@hvac/198.51.100.1:7070", "@hvac/127.0.0.1:7070", "@hvac/*:7070", "@hvac/[::1]:7070"}},
		{nil, nil},
	} {
		if got := localCandidates(tc.ips, "7070", host); !slices.Equal(got, tc.want) {
			t.Errorf("localCandidates(%v) = %q, want %q", tc.ips, got, tc.want)
		}
	}
	if got := resolveLocal("no port", 0); got != nil {
		t.Errorf("resolveLocal of an address without a port = %q, want none", got)
	}
}
