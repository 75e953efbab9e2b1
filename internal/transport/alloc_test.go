package transport

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"hvac/internal/testutil"
)

// The codec's zero-allocation contract (ISSUE 4 / DESIGN.md §9): once the
// pools are warm, encoding a response, decoding one (with Release), and
// encoding a request allocate nothing; decoding a request allocates only
// the path string. These budgets are regression gates — a change that
// reintroduces a per-call make on the hot path fails here, not in a
// benchmark someone has to remember to run.

// skipUnderRace skips allocation-budget tests under the race detector:
// race-mode sync.Pool randomly drops Puts, so warm pooled paths
// legitimately allocate there.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race (sync.Pool drops Puts)")
	}
}

func warmPools(data []byte) {
	// Prime the frame, net.Buffers and Response pools for every size used
	// by the tests: a few full round trips through the codec.
	var buf bytes.Buffer
	for i := 0; i < 4; i++ {
		buf.Reset()
		_ = WriteResponse(&buf, &Response{Status: StatusOK, Size: int64(len(data)), Data: data})
		resp, err := ReadResponse(bytes.NewReader(buf.Bytes()))
		if err == nil {
			resp.Release()
		}
	}
}

func TestWriteResponseAllocFree(t *testing.T) {
	skipUnderRace(t)
	data := make([]byte, 64<<10)
	resp := &Response{Status: StatusOK, Size: int64(len(data)), Data: data}
	warmPools(data)
	_ = WriteResponse(io.Discard, resp)
	if n := testing.AllocsPerRun(200, func() {
		if err := WriteResponse(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("WriteResponse allocates %.1f/op on the warm path, want 0", n)
	}
}

func TestWriteResponseEmptyAllocFree(t *testing.T) {
	skipUnderRace(t)
	resp := &Response{Status: StatusOK}
	_ = WriteResponse(io.Discard, resp)
	if n := testing.AllocsPerRun(200, func() {
		if err := WriteResponse(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("payload-free WriteResponse allocates %.1f/op, want 0", n)
	}
}

func TestReadResponseAllocFreeWithRelease(t *testing.T) {
	skipUnderRace(t)
	data := make([]byte, 64<<10)
	var buf bytes.Buffer
	if err := WriteResponse(&buf, &Response{Status: StatusOK, Size: int64(len(data)), Data: data}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	warmPools(data)
	rd := bytes.NewReader(wire)
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset(wire)
		resp, err := ReadResponse(rd)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}); n > 0 {
		t.Errorf("ReadResponse+Release allocates %.1f/op on the warm path, want 0", n)
	}
}

func TestWriteRequestAllocFree(t *testing.T) {
	skipUnderRace(t)
	req := &Request{Op: OpRead, Handle: 7, Off: 4096, Len: 64 << 10, Path: "/gpfs/dataset/file-000001.rec"}
	_ = WriteRequest(io.Discard, req)
	if n := testing.AllocsPerRun(200, func() {
		if err := WriteRequest(io.Discard, req); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("WriteRequest allocates %.1f/op on the warm path, want 0", n)
	}
}

func TestReadRequestIntoAllocsOnlyPath(t *testing.T) {
	skipUnderRace(t)
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{Op: OpRead, Handle: 7, Off: 4096, Len: 64 << 10, Path: "/gpfs/dataset/file-000001.rec"}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	rd := bytes.NewReader(wire)
	var req Request
	rd.Reset(wire)
	if err := ReadRequestInto(rd, &req); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset(wire)
		if err := ReadRequestInto(rd, &req); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("ReadRequestInto allocates %.1f/op, want <= 1 (the path string)", n)
	}
}

// TestZeroCopySendAllocFree pins the zero-copy serve budget: once the
// per-connection step closure and the pools are warm, pushing an
// fd-backed 1 MiB payload through sendfile allocates nothing — the
// payload never exists in userspace, so there is no buffer to allocate.
// The draining peer runs the warm pooled decode path (also 0 allocs), so
// the process-wide counter AllocsPerRun reads stays flat.
func TestZeroCopySendAllocFree(t *testing.T) {
	skipUnderRace(t)
	const size = 1 << 20
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, aerr := ln.Accept()
		if aerr == nil {
			accepted <- c
		}
	}()
	cconn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	sconn := <-accepted
	defer sconn.Close()

	path := filepath.Join(t.TempDir(), "payload")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0x5A}, size), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Drain on the warm pooled decode path so the peer goroutine does not
	// add allocations of its own to the process-wide counter.
	go func() {
		for {
			resp, rerr := ReadResponse(cconn)
			if rerr != nil {
				return
			}
			resp.Release()
		}
	}()

	var st ZeroCopyStats
	zw := newZCWriter(sconn)
	resp := &Response{Status: StatusOK, Size: size}
	send := func() {
		resp.SetPayloadFile(f, 0, size, nil, &st)
		if err := WriteResponse(zw, resp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		send() // warm: step closure, frame pools, peer decode pools
	}
	if n := testing.AllocsPerRun(100, send); n > 0 {
		t.Errorf("zero-copy send allocates %.1f/op on the warm path, want 0", n)
	}
	if zw.canSendfile() && st.Fallbacks.Load() != 0 {
		t.Errorf("sendfile-capable conn took %d fallbacks", st.Fallbacks.Load())
	}
}

// TestCallAllocFree pins a warm Call over TCP at zero allocations in the
// whole process, server included, and a deferred Call with it: the
// deferred frame is encoded into its connection's own queue, rides the
// next call's write, and its reply is read through the connection's
// reader into a pooled Response and dropped.
func TestCallAllocFree(t *testing.T) {
	skipUnderRace(t)
	checkResponses(t)
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		resp := AcquireResponse()
		resp.Handle = req.Handle
		return resp
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr())
	defer cli.Close()
	ping := &Request{Op: OpPing, Handle: 1}
	closeReq := &Request{Op: OpClose, Handle: 2, Defer: true}
	call := func(req *Request) {
		resp, err := cli.Call(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	for i := 0; i < 4; i++ {
		call(closeReq) // warm: connection, its queue and reader, the pools
		call(ping)
	}
	if n := testing.AllocsPerRun(200, func() { call(ping) }); n > 0 {
		t.Errorf("a warm Call allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		call(closeReq)
		call(ping)
	}); n > 0 {
		t.Errorf("a deferred Call and the call that carries it allocate %.1f/op, want 0", n)
	}
}

// TestLandedCallAllocatesNoPayload pins the landing receive's budget: a
// warm 8 MiB Call whose Request names a destination allocates no
// payload-sized object anywhere in the process — not a frame, not a
// staging buffer. What remains per call (the escaping Request, the
// handler's Response literal) is a few hundred bytes; the bound leaves
// three orders of magnitude below the payload.
func TestLandedCallAllocatesNoPayload(t *testing.T) {
	skipUnderRace(t)
	checkResponses(t)
	const size = 8 << 20
	payload := make([]byte, size)
	srv, err := Serve("127.0.0.1:0", func(req *Request) *Response {
		return &Response{Status: StatusOK, Size: size, Data: payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr())
	defer cli.Close()
	dst := make([]byte, size)
	call := func() {
		resp, err := cli.Call(&Request{Op: OpRead, Len: size, Dst: dst})
		if err != nil {
			t.Fatal(err)
		}
		if resp.pooled != nil {
			t.Fatal("payload was not received in place")
		}
		resp.Release()
	}
	for i := 0; i < 4; i++ {
		call() // warm: connection, scratch and Response pools
	}
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 8<<10 {
		t.Errorf("a landed 8 MiB call allocates %d bytes, want no payload-sized object (<= 8 KiB)", perCall)
	}
}

// TestRoundTripWithRelease checks that pooled decode + Release preserves
// byte identity even when the same pooled buffers are recycled across
// iterations and sizes — the aliasing bug pooling invites.
func TestRoundTripWithRelease(t *testing.T) {
	sizes := []int{0, 1, 511, 512, 513, 4096, 64 << 10, 1 << 20}
	var buf bytes.Buffer
	for round := 0; round < 3; round++ {
		for _, size := range sizes {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i*31 + size + round)
			}
			buf.Reset()
			want := &Response{Status: StatusOK, Handle: int64(size), Size: int64(size), Data: data}
			if err := WriteResponse(&buf, want); err != nil {
				t.Fatal(err)
			}
			got, err := ReadResponse(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Handle != int64(size) || got.Size != int64(size) || !bytes.Equal(got.Data, data) {
				t.Fatalf("size %d round %d: decode mismatch", size, round)
			}
			got.Release()
		}
	}
}

// TestConcurrentPoolRoundTrips shakes the pools from many goroutines (run
// under -race by make check): distinct responses must never observe each
// other's recycled buffers.
func TestConcurrentPoolRoundTrips(t *testing.T) {
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			data := bytes.Repeat([]byte{seed}, 32<<10)
			var buf bytes.Buffer
			for i := 0; i < 200; i++ {
				buf.Reset()
				if err := WriteResponse(&buf, &Response{Status: StatusOK, Size: int64(len(data)), Data: data}); err != nil {
					t.Error(err)
					return
				}
				resp, err := ReadResponse(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Error(err)
					return
				}
				for _, b := range resp.Data {
					if b != seed {
						t.Errorf("worker %d: read back %d, pooled buffer crossed goroutines", seed, b)
						resp.Release()
						return
					}
				}
				resp.Release()
			}
		}(byte(w + 1))
	}
	wg.Wait()
}

func TestGrabReleaseOwnership(t *testing.T) {
	resp := AcquireResponse()
	b1 := resp.Grab(1000)
	if len(b1) != 1000 {
		t.Fatalf("Grab(1000) length = %d", len(b1))
	}
	// A second Grab recycles the first buffer before handing out another.
	b2 := resp.Grab(2000)
	if len(b2) != 2000 {
		t.Fatalf("Grab(2000) length = %d", len(b2))
	}
	resp.Data = b2[:5]
	resp.Release()

	// Release on a plain literal is a safe no-op beyond clearing Data.
	lit := &Response{Status: StatusOK, Data: []byte{1, 2, 3}}
	lit.Release()
	if lit.Data != nil {
		t.Fatal("Release left literal Data set")
	}
}

// TestDoubleReleasePanics: a pooled Response is counted out by
// AcquireResponse and back in by its one Release. A second Release panics
// instead of recycling a struct another caller may already have taken
// back out of the pool; a literal Response may be released any number of
// times.
func TestDoubleReleasePanics(t *testing.T) {
	before := OutstandingResponses()
	resp := AcquireResponse()
	resp.Data = resp.Grab(64)
	if n := OutstandingResponses(); n != before+1 {
		t.Fatalf("%d responses outstanding after one acquire, want %d", n, before+1)
	}
	resp.Release()
	if n := OutstandingResponses(); n != before {
		t.Fatalf("%d responses outstanding after its release, want %d", n, before)
	}
	lit := &Response{Status: StatusOK}
	lit.Release()
	lit.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of a pooled Response did not panic")
		}
		if n := OutstandingResponses(); n != before {
			t.Fatalf("%d responses outstanding after the refused release, want %d", n, before)
		}
	}()
	resp.Release()
}
