package transport

import (
	"bytes"
	"os"
	"sync/atomic"
	"testing"

	"hvac/internal/slab"
	"hvac/internal/testutil"
)

// The descriptor plane (pass.go) end to end: a real Server and Client,
// with payloads on either side of passMin.

// TestPassedReplyLandsInDst: on the local socket a whole read the handler
// offers to Pass, of passMin bytes or more, comes back as a descriptor and
// is read from the file straight into Dst; a shorter one, or any over
// TCP, is refused and crosses the socket by sendfile as before. The bytes
// are the file's either way, no descriptor is left open, and no sendfile
// serve falls back.
func TestPassedReplyLandsInDst(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, network string) {
		checkResponses(t)
		testutil.CheckFDs(t)
		data := patterned(1 << 20)
		f := payloadFile(t, data)
		var zc ZeroCopyStats
		var passed atomic.Int64
		srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
			resp := AcquireResponse()
			if resp.Pass(req, f, req.Off, req.Len, nil) {
				passed.Add(1)
			} else {
				resp.SetPayloadFile(f, req.Off, req.Len, nil, &zc)
			}
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
			{0, passMin - 1}, {3, passMin - 1}, {0, passMin}, {5, passMin + 1}, {0, 64 << 10}, {7, 256<<10 + 1}, {0, 1 << 20},
		} {
			passes := network == "local" && rd.n >= passMin
			dst := make([]byte, rd.n)
			before := passed.Load()
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
			if got, want := passed.Load()-before, map[bool]int64{false: 0, true: 1}[passes]; got != want {
				t.Errorf("read %d at %d: %d passes, want %d", rd.n, rd.off, got, want)
			}
		}
		if zc.Eligible.Load() != zc.Sends.Load() || zc.Fallbacks.Load() != 0 {
			t.Errorf("eligible %d, sends %d, fallbacks %d: want every serve a send", zc.Eligible.Load(), zc.Sends.Load(), zc.Fallbacks.Load())
		}
	})
}

// releaseCounter counts the releases of the payloads it stands behind.
type releaseCounter struct{ n atomic.Int64 }

func (c *releaseCounter) Release() { c.n.Add(1) }

// batchEntrySpec is one entry of a test batch reply: how the handler
// serves it and which bytes of the file it carries.
type batchEntrySpec struct {
	kind    string // "passed", "spliced", "framed", "error" or "again"
	off, n  int
	landed  bool // on the local socket: the entry comes as a descriptor
	wantErr string
}

// serveBatchSpec appends spec's entry to resp as a server handler does: a
// "passed" entry is offered to Pass and, refused, read into the
// frame as "framed" is; "spliced" borrows the bytes from data.
func serveBatchSpec(req *Request, resp *Response, f *os.File, data []byte, e batchEntrySpec, rel PayloadReleaser) {
	switch e.kind {
	case "error":
		resp.Data = AppendBatchEntry(resp.Data, StatusError, []byte(e.wantErr))
	case "again":
		resp.Data = AppendBatchEntry(resp.Data, StatusAgain, nil)
	case "spliced":
		resp.Data = AppendBatchEntry(resp.Data, StatusOK, nil)
		PutBatchEntryHead(resp.Data[len(resp.Data)-BatchEntryOverhead:], StatusOK, e.n)
		resp.Splice(data[e.off:e.off+e.n], rel)
	case "passed":
		resp.Data = AppendBatchEntry(resp.Data, StatusOK, nil)
		if resp.Pass(req, f, int64(e.off), int64(e.n), rel) {
			return
		}
		resp.Data = append(resp.Data, data[e.off:e.off+e.n]...)
		PutBatchEntryHead(resp.Data[len(resp.Data)-BatchEntryOverhead-e.n:], StatusOK, e.n)
	default:
		resp.Data = AppendBatchEntry(resp.Data, StatusOK, data[e.off:e.off+e.n])
	}
}

// checkBatchReply decodes resp's entries and holds each to its spec: the
// status, the file's bytes, and whether it was landed from a descriptor.
// Landed buffers go back to the slab.
func checkBatchReply(t *testing.T, resp *Response, data []byte, specs []batchEntrySpec, local bool) {
	t.Helper()
	results, err := resp.BatchResults(len(specs))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range specs {
		r := results[i]
		switch e.kind {
		case "error":
			if r.Status != StatusError || r.Err != e.wantErr {
				t.Errorf("entry %d: status %d %q, want the error %q", i, r.Status, r.Err, e.wantErr)
			}
		case "again":
			if r.Status != StatusAgain {
				t.Errorf("entry %d: status %d, want StatusAgain", i, r.Status)
			}
		default:
			if !r.OK() || !bytes.Equal(r.Data, data[e.off:e.off+e.n]) {
				t.Errorf("entry %d (%s, %d bytes): status %d, %d bytes that differ from the file", i, e.kind, e.n, r.Status, len(r.Data))
			}
			if want := local && e.landed; r.Landed != want {
				t.Errorf("entry %d (%s, %d bytes): Landed = %v, want %v", i, e.kind, e.n, r.Landed, want)
			}
			if r.Landed {
				slab.Put(r.Data)
			}
		}
	}
}

// TestBatchReplyMixesPlanes: one batch reply carries entries passed as
// descriptors, spliced from borrowed memory, read into the frame, failed
// and skipped, in that order and mixed. On the local socket the passed
// entries from passMin up land from their descriptors, and one below
// it leaves as bytes; over TCP every entry is bytes. The bytes and the
// order are the file's either way, no descriptor is left open, and the
// server holds every passed entry's releaser until the peer's next
// request.
func TestBatchReplyMixesPlanes(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, network string) {
		checkResponses(t)
		testutil.CheckFDs(t)
		data := patterned(1 << 20)
		f := payloadFile(t, data)
		specs := []batchEntrySpec{
			{kind: "passed", off: 0, n: 32 << 10, landed: true},
			{kind: "spliced", off: 100 << 10, n: 16 << 10},
			{kind: "framed", off: 200 << 10, n: 12 << 10},
			{kind: "error", wantErr: "no such file"},
			{kind: "again"},
			{kind: "passed", off: 300<<10 + 5, n: passMin, landed: true},
			{kind: "passed", off: 400 << 10, n: passMin - 1},
			{kind: "passed", off: 500 << 10, n: 64 << 10, landed: true},
		}
		var passedRel, otherRel releaseCounter
		srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
			resp := AcquireResponse()
			if req.Op != OpReadBatch {
				return resp
			}
			resp.Data = resp.Grab(256 << 10)[:0]
			for _, e := range specs {
				var rel PayloadReleaser = &otherRel
				if e.kind == "passed" {
					rel = &passedRel
				}
				serveBatchSpec(req, resp, f, data, e, rel)
			}
			resp.Size = int64(len(specs))
			return resp
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := dialNet(network, srv.Addr())
		defer c.Close()
		local := network == "local"
		wantPassed := int64(0)
		if local {
			wantPassed = 3
		}
		for round := int64(1); round <= 3; round++ {
			resp, err := c.Call(&Request{Op: OpReadBatch, Path: "batch"})
			if err != nil {
				t.Fatal(err)
			}
			checkBatchReply(t, resp, data, specs, local)
			resp.Release()
			// The replies before this one are released: the peer asked
			// again. This one's passed entries are held until it does.
			if got := passedRel.n.Load(); got != (round-1)*wantPassed {
				t.Errorf("round %d: %d passed entries released, want %d", round, got, (round-1)*wantPassed)
			}
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if got := passedRel.n.Load(); got != 3*wantPassed {
			t.Errorf("%d passed entries released after the next request, want %d", got, 3*wantPassed)
		}
		if got := otherRel.n.Load(); got != 3 {
			t.Errorf("%d spliced entries released, want one per reply", got)
		}
	})
}

// TestBatchReplyOverPassCap: a reply's entries past passCap, the most
// descriptors one control message carries, leave as bytes in the same
// frame; the first passCap land from their descriptors.
func TestBatchReplyOverPassCap(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, network string) {
		checkResponses(t)
		testutil.CheckFDs(t)
		data := patterned(1 << 20)
		f := payloadFile(t, data)
		specs := make([]batchEntrySpec, passCap+3)
		for i := range specs {
			specs[i] = batchEntrySpec{kind: "passed", off: i * 3 << 10, n: passMin, landed: i < passCap}
		}
		var passed atomic.Int64
		srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
			resp := AcquireResponse()
			resp.Data = resp.Grab(len(specs) * (BatchEntryOverhead + passMin))[:0]
			for _, e := range specs {
				serveBatchSpec(req, resp, f, data, e, nil)
			}
			passed.Store(int64(resp.passedFiles()))
			resp.Size = int64(len(specs))
			return resp
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c := dialNet(network, srv.Addr())
		defer c.Close()
		resp, err := c.Call(&Request{Op: OpReadBatch, Path: "batch"})
		if err != nil {
			t.Fatal(err)
		}
		checkBatchReply(t, resp, data, specs, network == "local")
		resp.Release()
		if want := map[string]int64{"local": passCap, "tcp": 0}[network]; passed.Load() != want {
			t.Errorf("%d entries passed, want %d", passed.Load(), want)
		}
	})
}
