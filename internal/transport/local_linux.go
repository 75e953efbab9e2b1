//go:build linux && !386

package transport

import (
	"context"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The node-local socket (DESIGN.md §4): every server listener also claims
// a Linux abstract unix socket named after the TCP address it bound, and
// a client connects to it first wherever a TCP connect from this host
// would reach the same listener. Abstract names live in the network
// namespace and die with their socket, so there is no file to clean up;
// they carry no permissions either, so a client keeps a connection only
// to a peer running as its own user or root, and a server serves a local
// connection only from such a peer. The socket exists only where the
// descriptor plane does (pass_linux.go): a server there passes cached
// payloads as descriptors, and a client that could not receive them would
// fail every such read.

// LocalSocket reports whether this build has the node-local socket.
func LocalSocket() bool { return true }

// listenLocal claims the local name of the TCP address a server bound:
// its IP, or "*" for a wildcard bind, which TCP reaches from any of this
// host's addresses.
func listenLocal(bound net.Addr) (net.Listener, error) {
	a := bound.(*net.TCPAddr)
	host := a.IP.String()
	if a.IP.IsUnspecified() {
		host = "*"
	}
	return net.Listen("unix", localName(host, strconv.Itoa(a.Port)))
}

func localName(host, port string) string { return "@hvac/" + net.JoinHostPort(host, port) }

// localCandidates lists the local names a TCP connect to ips:port from a
// host with the given addresses may reach, in the order TCP tries them:
// each IP's own name, then the wildcard name once the IP is loopback or
// the host's own. A remote IP never yields the wildcard name.
func localCandidates(ips []net.IP, port string, host []net.IP) []string {
	var names []string
	wild := false
	for _, ip := range ips {
		names = append(names, localName(ip.String(), port))
		if !wild && (ip.IsLoopback() || slices.ContainsFunc(host, ip.Equal)) {
			names = append(names, localName("*", port))
			wild = true
		}
	}
	return names
}

// hostIPs is this host's interface addresses, read once per process.
var hostIPs = sync.OnceValue(func() []net.IP {
	addrs, _ := net.InterfaceAddrs() // none known: only loopback is local
	var ips []net.IP
	for _, a := range addrs {
		if n, ok := a.(*net.IPNet); ok {
			ips = append(ips, n.IP)
		}
	}
	return ips
})

// resolveLocal resolves addr's host once and lists the local names to try.
func resolveLocal(addr string, timeout time.Duration) []string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil
	}
	ips := []net.IP{net.ParseIP(host)}
	if ips[0] == nil {
		ctx, cancel := context.WithTimeout(context.TODO(), timeout) // dial takes no context
		defer cancel()
		if ips, err = net.DefaultResolver.LookupIP(ctx, "ip", host); err != nil {
			return nil // TCP reports the failure
		}
	}
	return localCandidates(ips, port, hostIPs())
}

// peerUID reports the uid the connected peer listened or connected as
// (SO_PEERCRED): the seam TestForeignPeerRefused and
// TestForeignClientRefused replace.
var peerUID = func(c *net.UnixConn) (uint32, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, err
	}
	var cred *syscall.Ucred
	var cerr error
	if err := rc.Control(func(fd uintptr) {
		cred, cerr = syscall.GetsockoptUcred(int(fd), syscall.SOL_SOCKET, syscall.SO_PEERCRED)
	}); err != nil {
		return 0, err
	}
	if cerr != nil {
		return 0, cerr
	}
	return cred.Uid, nil
}

// trustedPeer reports whether a local peer may receive requests: it runs
// as this process's user or as root.
func trustedPeer(uid uint32) bool { return uid == 0 || uid == uint32(os.Getuid()) }

// trustedConn reports whether the peer of a local connection is a
// trustedPeer; one whose credentials cannot be read is not.
func trustedConn(c net.Conn) bool {
	uid, err := peerUID(c.(*net.UnixConn))
	return err == nil && trustedPeer(uid)
}

// dialLocal connects to the first local name that answers, or returns nil
// for the caller to dial TCP: no name answers, or the first that does is
// not a trustedPeer.
func (c *Client) dialLocal() net.Conn {
	if c.tcpOnly {
		return nil
	}
	c.localOnce.Do(func() { c.localNames = resolveLocal(c.addr, c.dialTimeout) })
	d := net.Dialer{Timeout: c.dialTimeout}
	for _, name := range c.localNames {
		conn, err := d.Dial("unix", name)
		if err != nil {
			continue // not claimed on this host
		}
		if trustedConn(conn) {
			return conn
		}
		_ = conn.Close() // an untrusted peer gets no request
		return nil
	}
	return nil
}
