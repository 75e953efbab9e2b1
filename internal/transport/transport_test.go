package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hvac/internal/testutil"
)

// checkResponses fails the test if a pooled Response handed out while it
// ran is still unreleased once its cleanups have run. Register it before
// the test starts a server or dials a link.
func checkResponses(t *testing.T) {
	t.Helper()
	testutil.CheckBalance(t, "pooled responses outstanding", OutstandingResponses)
}

func TestRequestRoundTrip(t *testing.T) {
	f := func(op uint8, handle, off, length int64, path string) bool {
		if len(path) > 60000 {
			path = path[:60000]
		}
		req := &Request{Op: Op(op), Handle: handle, Off: off, Len: length, Path: path}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			return false
		}
		got, err := ReadRequest(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(req, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOpNumbersArePinned holds every assigned op to the byte it puts on
// the wire. 6, 7 and 9 belonged to ops since retired (a prefetch hint, a
// segment's ranged read and an epoch plan install) and stay blank:
// numbering a later op into them would make a request from a client
// built before the retirement a different op to a new server, instead of
// an unknown one.
func TestOpNumbersArePinned(t *testing.T) {
	for _, c := range []struct {
		name string
		op   Op
		wire byte
	}{
		{"OpOpen", OpOpen, 1},
		{"OpRead", OpRead, 2},
		{"OpClose", OpClose, 3},
		{"OpStat", OpStat, 4},
		{"OpPing", OpPing, 5},
		{"OpReadBatch", OpReadBatch, 8},
	} {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, &Request{Op: c.op}); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes()[4]; got != c.wire { // after the u32 frame length
			t.Errorf("%s goes on the wire as %d, want %d", c.name, got, c.wire)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	f := func(status uint8, handle, size int64, data []byte, errStr string) bool {
		if len(data) > 1<<20 {
			data = data[:1<<20]
		}
		if len(errStr) > 60000 {
			errStr = errStr[:60000]
		}
		if len(data) == 0 {
			data = nil
		}
		resp := &Response{Status: status, Handle: handle, Size: size, Data: data, Err: errStr}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			return false
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			return false
		}
		defer got.Release()
		return got.Status == resp.Status && got.Handle == resp.Handle &&
			got.Size == resp.Size && bytes.Equal(got.Data, resp.Data) && got.Err == resp.Err
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptFrameRejected(t *testing.T) {
	// Oversized frame length.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadRequest(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Path length overrunning the frame.
	req := &Request{Op: OpOpen, Path: "abc"}
	var b2 bytes.Buffer
	WriteRequest(&b2, req)
	raw := b2.Bytes()
	raw[29] = 0xff // corrupt pathLen
	if _, err := ReadRequest(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt path length accepted")
	}
}

func TestResponseError(t *testing.T) {
	ok := &Response{Status: StatusOK}
	if !ok.OK() || ok.Error() != nil {
		t.Fatal("ok response misreported")
	}
	bad := &Response{Status: StatusError, Err: "no such file"}
	if bad.OK() || bad.Error() == nil || !strings.Contains(bad.Error().Error(), "no such file") {
		t.Fatalf("bad response: %v", bad.Error())
	}
}

func echoHandler(req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{Status: StatusOK}
	case OpOpen:
		return &Response{Status: StatusOK, Handle: 7, Size: int64(len(req.Path))}
	case OpRead:
		data := make([]byte, req.Len)
		for i := range data {
			data[i] = byte(req.Off + int64(i))
		}
		return &Response{Status: StatusOK, Data: data, Size: req.Len}
	default:
		return &Response{Status: StatusError, Err: fmt.Sprintf("bad op %d", req.Op)}
	}
}

func TestClientServerRPC(t *testing.T) {
	checkResponses(t)
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := Dial(srv.Addr())
	defer cli.Close()

	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Call(&Request{Op: OpOpen, Path: "/data/file"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Handle != 7 || resp.Size != int64(len("/data/file")) {
		t.Fatalf("open resp = %+v", resp)
	}
	resp.Release()
	resp, err = cli.Call(&Request{Op: OpRead, Off: 3, Len: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, []byte{3, 4, 5, 6, 7}) {
		t.Fatalf("read data = %v", resp.Data)
	}
	resp.Release()
	resp, err = cli.Call(&Request{Op: OpClose})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK() {
		t.Fatal("expected error status for unsupported op")
	}
	resp.Release()
}

func TestConcurrentClients(t *testing.T) {
	checkResponses(t)
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := Dial(srv.Addr())
			defer cli.Close()
			for i := 0; i < 100; i++ {
				resp, err := cli.Call(&Request{Op: OpRead, Off: int64(i), Len: 16})
				if err != nil {
					t.Error(err)
					return
				}
				ok := len(resp.Data) == 16 && resp.Data[0] == byte(i)
				resp.Release()
				if !ok {
					t.Errorf("bad payload at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCallAfterServerClose closes a server while the client's pooled
// connection sits idle in the server's request read: Close must sever it
// to return, and the next call then fails.
func TestCallAfterServerClose(t *testing.T) {
	checkResponses(t)
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cli := Dial(srv.Addr())
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := cli.Ping(); err == nil {
		t.Fatal("ping succeeded against closed server")
	}
}

func TestClientReconnectsAfterIdleConnDrop(t *testing.T) {
	checkResponses(t)
	srv, err := Serve("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	cli := Dial(srv.Addr())
	defer cli.Close()
	if err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the SAME address: pooled conn is now dead and
	// Call must retry on a fresh connection.
	addr := srv.Addr()
	srv.Close()
	srv2, err := Serve(addr, echoHandler)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping after server restart: %v", err)
	}
}

func TestClientClosed(t *testing.T) {
	checkResponses(t)
	cli := Dial("127.0.0.1:1")
	cli.Close()
	if _, err := cli.Call(&Request{Op: OpPing}); err != ErrClientClosed {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
}
