package transport

import (
	"bytes"
	"sync/atomic"
	"testing"
)

// countRel is a PayloadReleaser that counts its releases.
type countRel struct{ n atomic.Int64 }

func (r *countRel) Release() { r.n.Add(1) }

// TestSplicedFrameMatchesAppended: a payload assembled from Data runs and
// borrowed segments encodes to the frame the same bytes make appended to
// Data — a whole read's lone segment, a batch's segments between entry
// headers, and empty runs and segments among them — and each releaser runs
// exactly once, with Release, not with the write.
func TestSplicedFrameMatchesAppended(t *testing.T) {
	checkResponses(t)
	seg := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	for _, tc := range []struct {
		name  string
		parts [][]byte // even: owned runs, odd: borrowed segments
	}{
		{"lone segment", [][]byte{nil, seg('a', 32<<10)}},
		{"runs around segments", [][]byte{seg(1, 5), seg('a', 4096), seg(2, 5), seg('b', 100), seg(3, 9)}},
		{"empty runs and segments", [][]byte{nil, seg('a', 10), nil, nil, seg(4, 3), seg('c', 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var flat []byte
			resp := AcquireResponse()
			resp.Status, resp.Size, resp.Err = StatusOK, 7, "tail"
			resp.Data = resp.Grab(64)[:0]
			rels := make([]countRel, len(tc.parts))
			for i, p := range tc.parts {
				flat = append(flat, p...)
				if i%2 == 0 {
					resp.Data = append(resp.Data, p...)
				} else {
					resp.Splice(p, &rels[i])
				}
			}
			var got, want bytes.Buffer
			if err := WriteResponse(&got, resp); err != nil {
				t.Fatal(err)
			}
			if err := WriteResponse(&want, &Response{Status: StatusOK, Size: 7, Err: "tail", Data: flat}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("spliced frame (%d bytes) differs from the appended one (%d bytes)", got.Len(), want.Len())
			}
			for i := 1; i < len(rels); i += 2 {
				if rels[i].n.Load() != 0 {
					t.Fatalf("segment %d released by the write", i)
				}
			}
			resp.Release()
			for i := 1; i < len(rels); i += 2 {
				if n := rels[i].n.Load(); n != 1 {
					t.Fatalf("segment %d released %d times, want once", i, n)
				}
			}
		})
	}
}

// TestSplicedReplyOverTCP: a handler's reply whose whole payload is
// borrowed reaches the client intact through the server loop, and its
// releaser has run by the time the client holds the reply — after the
// write, before the next request.
func TestSplicedReplyOverTCP(t *testing.T) {
	checkResponses(t)
	payload := bytes.Repeat([]byte("mapped"), 5000)
	var rel countRel
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		resp := AcquireResponse()
		resp.Splice(payload, &rel)
		resp.Size = int64(len(payload))
		return resp
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr())
	defer cli.Close()
	for i := 1; i <= 3; i++ {
		resp, err := cli.Call(&Request{Op: OpRead})
		if err != nil {
			t.Fatal(err)
		}
		ok := bytes.Equal(resp.Data, payload)
		resp.Release()
		if !ok {
			t.Fatalf("call %d: payload differs", i)
		}
		// The server releases after its write returns, which the client's
		// read may overtake; the next call's answer orders the two.
		if n := rel.n.Load(); n < int64(i-1) {
			t.Fatalf("call %d: %d releases, the earlier replies' not all done", i, n)
		}
	}
}

// TestSplicedSendAllocFree pins the mapped plane's send at zero
// allocations in the process: a pooled Response with a pooled segment
// list, written to a connection of either kind in one writev and
// released.
func TestSplicedSendAllocFree(t *testing.T) {
	skipUnderRace(t)
	forEachNetwork(t, testSplicedSendAllocFree)
}

func testSplicedSendAllocFree(t *testing.T, network string) {
	checkResponses(t)
	sconn := drainedConn(t, network)
	seg := bytes.Repeat([]byte{0x5A}, 32<<10)
	var rel countRel
	send := func() {
		resp := AcquireResponse()
		resp.Data = resp.Grab(64)[:0]
		for i := 0; i < 16; i++ { // a batch's worth of entries
			resp.Data = AppendBatchEntry(resp.Data, StatusOK, nil)
			resp.Splice(seg, &rel)
		}
		if err := WriteResponse(sconn, resp); err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	for i := 0; i < 8; i++ {
		send() // warm: frame, response and segment pools, peer decode pools
	}
	if n := testing.AllocsPerRun(100, send); n > 0 {
		t.Errorf("a spliced send allocates %.1f/op on the warm path, want 0", n)
	}
}
