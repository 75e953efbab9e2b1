//go:build linux

package core

import (
	"encoding/binary"
	"net"
	"os"
	"syscall"
	"testing"
)

// readPassedReply reads, off a raw local connection, a whole read's reply
// that left as its cache file's descriptor (transport.Response.Pass), as
// a transport client would: the frame with the descriptor attached, then
// the range it names, from the file. It lets a raw peer leave such a reply
// unread for as long as it likes.
func readPassedReply(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	// u32 frame | u8 status | u64 handle | u64 size | u32 dataLen, with
	// bit 31 marking the range u64 off | u64 len as the data; u16 errLen.
	const head, rng = 4 + 1 + 8 + 8 + 4, 16
	frame, oob := make([]byte, 64), make([]byte, syscall.CmsgSpace(4))
	n, oobn, _, _, err := conn.(*net.UnixConn).ReadMsgUnix(frame, oob)
	if err != nil {
		t.Fatal(err)
	}
	if n != head+rng+2 || binary.LittleEndian.Uint32(frame[head-4:]) != 1<<31|rng {
		t.Fatalf("a %d-byte reply that is not a descriptor frame", n)
	}
	msgs, err := syscall.ParseSocketControlMessage(oob[:oobn])
	if err != nil || len(msgs) != 1 {
		t.Fatalf("%d control messages with the reply: %v", len(msgs), err)
	}
	fds, err := syscall.ParseUnixRights(&msgs[0])
	if err != nil || len(fds) != 1 {
		t.Fatalf("%d descriptors with the reply: %v", len(fds), err)
	}
	f := os.NewFile(uintptr(fds[0]), "passed")
	defer f.Close()
	got := make([]byte, binary.LittleEndian.Uint64(frame[head+8:]))
	if _, err := f.ReadAt(got, int64(binary.LittleEndian.Uint64(frame[head:]))); err != nil {
		t.Fatal(err)
	}
	return got
}
