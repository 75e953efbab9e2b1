//go:build !linux || 386

package transport

import "net"

// Non-Linux builds have no abstract unix sockets, and 32-bit x86 Linux has
// no descriptor plane (pass_other.go), which every local reply of 8 KiB
// or more would need: servers listen on TCP alone and clients dial it.

// LocalSocket reports whether this build has the node-local socket.
func LocalSocket() bool { return false }

func listenLocal(net.Addr) (net.Listener, error) { return nil, nil }

func (c *Client) dialLocal() net.Conn { return nil }

func trustedConn(net.Conn) bool { return true } // never called: no local listener
