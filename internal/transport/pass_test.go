package transport

import (
	"bytes"
	"runtime"
	"testing"

	"hvac/internal/testutil"
)

// The descriptor plane (pass.go) end to end: a real Server and Client,
// with file payloads on either side of descMin.

// TestPassedReplyLandsInDst: on the local socket a file payload of descMin
// bytes or more comes back as a descriptor and is read from the file
// straight into Dst; a shorter one, or any over TCP, crosses the socket
// as before. The bytes are the file's either way, no descriptor is left
// open, and every pass is a send, never a fallback.
func TestPassedReplyLandsInDst(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, network string) {
		checkResponses(t)
		testutil.CheckFDs(t)
		data := patterned(1 << 20)
		f := payloadFile(t, data)
		var zc ZeroCopyStats
		srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
			resp := AcquireResponse()
			resp.SetPayloadFile(f, req.Off, req.Len, nil, &zc)
			resp.Size = req.Len
			return resp
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := dialNet(network, srv.Addr())
		defer c.Close()
		for _, rd := range []struct{ off, n int64 }{
			{0, descMin - 1}, {0, descMin}, {7, descMin + 1}, {0, 1 << 20},
		} {
			passes := network == "local" && rd.n >= descMin && runtime.GOOS == "linux"
			dst := make([]byte, rd.n)
			passed := zc.Passed.Load()
			resp, err := c.Call(&Request{Op: OpRead, Off: rd.off, Len: rd.n, Dst: dst})
			if err != nil {
				t.Fatalf("read %d at %d: %v", rd.n, rd.off, err)
			}
			if len(resp.Data) != int(rd.n) || &resp.Data[0] != &dst[0] {
				t.Errorf("read %d at %d: the payload did not land in Dst", rd.n, rd.off)
			}
			if resp.Passed() != passes {
				t.Errorf("read %d at %d: Passed() = %v, want %v", rd.n, rd.off, resp.Passed(), passes)
			}
			resp.Release()
			if !bytes.Equal(dst, data[rd.off:rd.off+rd.n]) {
				t.Fatalf("read %d at %d: bytes differ from the file", rd.n, rd.off)
			}
			if got, want := zc.Passed.Load()-passed, map[bool]int64{false: 0, true: 1}[passes]; got != want {
				t.Errorf("read %d at %d: %d passes counted, want %d", rd.n, rd.off, got, want)
			}
		}
		if zc.Eligible.Load() != zc.Sends.Load() || zc.Fallbacks.Load() != 0 {
			t.Errorf("eligible %d, sends %d, fallbacks %d: want every serve a send", zc.Eligible.Load(), zc.Sends.Load(), zc.Fallbacks.Load())
		}
	})
}
