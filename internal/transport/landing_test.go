package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"hvac/internal/testutil"
)

// The landing half of the response decoder (Request.Dst): where the
// payload ends up, what Release recycles, and what a damaged stream
// leaves behind.

func encodeResponse(t testing.TB, resp *Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + n)
	}
	return b
}

// A payload of exactly 1<<k bytes must come back in the 1<<k pool class:
// the decoder sizes its pooled buffer from the payload, not from the
// frame (whose 23 bytes of framing used to push it into the next class).
func TestPooledDecodeStaysInPayloadClass(t *testing.T) {
	for _, k := range []int{minBufClass, 12, 15, 20, 23} {
		size := 1 << k
		data := patterned(size)
		resp, err := ReadResponse(bytes.NewReader(encodeResponse(t, &Response{Status: StatusOK, Size: int64(size), Data: data})))
		if err != nil {
			t.Fatalf("1<<%d: %v", k, err)
		}
		if resp.pooled == nil || cap(*resp.pooled) != size {
			t.Fatalf("1<<%d byte payload decoded into a pooled buffer of %d bytes, want %d", k, cap(*resp.pooled), size)
		}
		if !bytes.Equal(resp.Data, data) {
			t.Fatalf("1<<%d: payload mismatch", k)
		}
		resp.Release()
	}
}

func TestLandingDecode(t *testing.T) {
	const size = 4096
	payload := patterned(size)
	const sentinel = 0xEE
	cases := []struct {
		name   string
		resp   Response
		dstLen int
		landed bool // Data must alias the destination
	}{
		{name: "fits exactly", resp: Response{Status: StatusOK, Handle: 3, Size: size, Data: payload}, dstLen: size, landed: true},
		{name: "fits with room", resp: Response{Status: StatusOK, Size: size, Data: payload}, dstLen: size + 100, landed: true},
		{name: "one byte short", resp: Response{Status: StatusOK, Size: size, Data: payload}, dstLen: size - 1},
		{name: "zero-length payload", resp: Response{Status: StatusOK, Handle: 9}, dstLen: size},
		{name: "error reply", resp: Response{Status: StatusError, Err: "hvac server: bad handle 7"}, dstLen: size},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := bytes.Repeat([]byte{sentinel}, tc.dstLen)
			got, err := readResponse(bytes.NewReader(encodeResponse(t, &tc.resp)), dst)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != tc.resp.Status || got.Handle != tc.resp.Handle || got.Size != tc.resp.Size ||
				got.Err != tc.resp.Err || !bytes.Equal(got.Data, tc.resp.Data) {
				t.Fatalf("decoded %+v, want %+v", got, tc.resp)
			}
			if tc.landed {
				if got.pooled != nil || &got.Data[0] != &dst[0] {
					t.Fatal("payload fits the destination but was not received in place")
				}
				if !bytes.Equal(dst[len(got.Data):], bytes.Repeat([]byte{sentinel}, len(dst)-len(got.Data))) {
					t.Fatal("decoder wrote past the payload in the destination")
				}
			} else if !bytes.Equal(dst, bytes.Repeat([]byte{sentinel}, len(dst))) {
				t.Fatal("decoder touched a destination it did not land in")
			}
			got.Release()
			// Release recycles only what came from a pool: landed bytes are
			// the caller's and stay put.
			if tc.landed && !bytes.Equal(dst[:size], payload) {
				t.Fatal("Release disturbed caller-owned payload bytes")
			}
		})
	}
}

func TestLandingDecodeCutMidPayload(t *testing.T) {
	frame := encodeResponse(t, &Response{Status: StatusOK, Size: 4096, Data: patterned(4096)})
	for _, cut := range []int{respHeadLen, respHeadLen + 1, respHeadLen + 2048, len(frame) - 3, len(frame) - 1} {
		resp, err := readResponse(bytes.NewReader(frame[:cut]), make([]byte, 4096))
		if err == nil {
			resp.Release()
			t.Fatalf("frame cut at %d of %d bytes decoded", cut, len(frame))
		}
	}
}

// A stream that dies mid-payload fails the call, and the connection it
// died on is closed rather than pooled: the next call must dial afresh
// instead of reading the tail of a dead frame.
func TestCallCutMidPayloadNotPooled(t *testing.T) {
	checkResponses(t)
	testutil.CheckLeaks(t)
	const size = 256 << 10
	frame := encodeResponse(t, &Response{Status: StatusOK, Size: size, Data: patterned(size)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req Request
		if ReadRequestInto(conn, &req) == nil {
			_, _ = conn.Write(frame[:respHeadLen+size/2]) // the peer is gone after half the payload
		}
	}()
	cli := DialWith(ln.Addr().String(), ClientOptions{CallTimeout: 5 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}})
	dst := make([]byte, size)
	resp, err := cli.Call(&Request{Op: OpRead, Len: size, Dst: dst})
	if err == nil {
		resp.Release()
		t.Fatal("call succeeded on a stream cut mid-payload")
	}
	cli.mu.Lock()
	idle := len(cli.idle)
	cli.mu.Unlock()
	if idle != 0 {
		t.Fatalf("%d connection(s) pooled after a failed receive", idle)
	}
	cli.Close()
	_ = ln.Close()
	<-served
}

// Landing through both Transport implementations: the same Call, with and
// without a destination, returns the same bytes; with one, they are in it.
func TestCallLandsInDst(t *testing.T) {
	checkResponses(t)
	testutil.CheckLeaks(t)
	const size = 1 << 20
	payload := patterned(size)
	handler := func(req *Request) *Response {
		n := min(int(req.Len), size)
		return &Response{Status: StatusOK, Size: int64(n), Data: payload[:n]}
	}
	srv, err := Serve("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, tr := range map[string]Transport{"tcp": Dial(srv.Addr()), "sim": NewSim("sim", handler)} {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			dst := make([]byte, size)
			resp, err := tr.Call(&Request{Op: OpRead, Len: size, Dst: dst})
			if err != nil {
				t.Fatal(err)
			}
			if resp.pooled != nil || len(resp.Data) != size || &resp.Data[0] != &dst[0] {
				t.Fatal("payload was not received in the destination")
			}
			resp.Release()
			if !bytes.Equal(dst, payload) {
				t.Fatal("landed bytes differ from the payload")
			}

			resp, err = tr.Call(&Request{Op: OpRead, Len: size})
			if err != nil {
				t.Fatal(err)
			}
			if resp.pooled == nil || !bytes.Equal(resp.Data, payload) {
				t.Fatal("pooled receive differs from the payload")
			}
			resp.Release()
		})
	}
}
