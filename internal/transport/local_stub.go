//go:build !linux

package transport

import "net"

// Non-Linux builds have no abstract unix sockets: servers listen on TCP
// alone and clients dial it.

func listenLocal(net.Addr) (net.Listener, error) { return nil, nil }

func (c *Client) dialLocal() net.Conn { return nil }

func trustedConn(net.Conn) bool { return true } // never called: no local listener
