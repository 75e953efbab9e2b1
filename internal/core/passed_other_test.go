//go:build !linux

package core

import (
	"net"
	"testing"
)

// readPassedReply is never reached off Linux: there is no local socket.
func readPassedReply(t *testing.T, _ net.Conn) []byte {
	t.Skip("no local socket in this build")
	return nil
}
