package transport

import (
	"bytes"
	"testing"
)

// FuzzReadRequest ensures arbitrary bytes never panic the request decoder
// and that valid encodings round-trip.
func FuzzReadRequest(f *testing.F) {
	var seedBuf bytes.Buffer
	WriteRequest(&seedBuf, &Request{Op: OpOpen, Handle: 7, Off: 1024, Len: 4096, Path: "/gpfs/a"})
	f.Add(seedBuf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded request must re-encode and re-decode to
		// the same value.
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		req2, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Wire fields only: Dst is client-side and makes Request
		// non-comparable.
		if req2.Op != req.Op || req2.Handle != req.Handle || req2.Off != req.Off ||
			req2.Len != req.Len || req2.Path != req.Path {
			t.Fatalf("round trip mismatch: %+v vs %+v", req, req2)
		}
	})
}

// FuzzReadResponse does the same for the response decoder.
func FuzzReadResponse(f *testing.F) {
	var seedBuf bytes.Buffer
	WriteResponse(&seedBuf, &Response{Status: StatusOK, Handle: 3, Size: 99, Data: []byte("xyz"), Err: ""})
	f.Add(seedBuf.Bytes())
	f.Add([]byte{23, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		resp2, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if resp2.Status != resp.Status || resp2.Handle != resp.Handle ||
			resp2.Size != resp.Size || !bytes.Equal(resp2.Data, resp.Data) || resp2.Err != resp.Err {
			t.Fatalf("round trip mismatch")
		}
	})
}
