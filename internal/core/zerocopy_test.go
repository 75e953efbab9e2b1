package core

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"hvac/internal/cachestore"
	"hvac/internal/transport"
)

// The zero-copy serve plane (DESIGN.md §4.3) end to end: real clusters,
// proving the sendfile path is invisible to clients (byte identity),
// survives connections dying mid-payload, and keeps the
// Sends+Fallbacks == Eligible accounting identity.

// writeSizedPFS lays out one file per size so a single cluster run
// covers empty, sub-segment, page-sized, and multi-chunk payloads.
func writeSizedPFS(t *testing.T, dir string, sizes []int) []string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(sizes))
	for i, size := range sizes {
		content := make([]byte, size)
		for j := range content {
			content[j] = byte(j*31 + size)
		}
		p := filepath.Join(dir, fmt.Sprintf("s%08d.bin", size))
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	return paths
}

// TestZeroCopyByteIdentity reads one dataset through a cluster across
// two epochs (the second is warm, so it is served through fd leases:
// mappings, and sendfile or, where the client dials the local socket,
// descriptors) and requires every read to match the PFS bytes, once with
// the small files mapped and once with the mapping budget spent. The warm
// epoch must hand leases over: on the local socket as passed descriptors
// and never to sendfile; over TCP as zero-copy-eligible serves, and on
// Linux actual sendfile sends.
func TestZeroCopyByteIdentity(t *testing.T) {
	sizes := []int{1, 511, 4096, zeroCopyMin - 1, zeroCopyMin, zeroCopyMin + 1, (1 << 20) + 7}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writeSizedPFS(t, pfsDir, sizes)
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		content, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = content
	}
	forEachMapping(t, func(t *testing.T, mapped bool) {
		servers, cli := startCluster(t, pfsDir, 2, nil, nil)

		for epoch := 0; epoch < 2; epoch++ {
			for _, p := range paths {
				got, err := cli.ReadAll(p)
				if err != nil {
					t.Fatalf("epoch %d: read %s: %v", epoch, p, err)
				}
				if !bytes.Equal(got, want[p]) {
					t.Fatalf("epoch %d: %s differs from the PFS copy (%d bytes, want %d)",
						epoch, p, len(got), len(want[p]))
				}
			}
			for _, s := range servers {
				s.WaitIdle() // warm every cache before the second epoch
			}
		}

		var eligible, sends, mappedSends, passed int64
		for i, s := range servers {
			ss := s.Stats()
			if ss.ZeroCopySends+ss.ZeroCopyFallbacks != ss.ZeroCopyEligible {
				t.Fatalf("srv%d: sends(%d)+fallbacks(%d) != eligible(%d)",
					i, ss.ZeroCopySends, ss.ZeroCopyFallbacks, ss.ZeroCopyEligible)
			}
			eligible += ss.ZeroCopyEligible
			sends += ss.ZeroCopySends
			mappedSends += ss.MappedSends
			passed += ss.Passed
		}
		if (mappedSends > 0) != mapped {
			t.Fatalf("warm epoch: %d serves from mappings with mapped=%v", mappedSends, mapped)
		}
		if transport.LocalSocket() { // the client dials the local socket
			if passed == 0 || eligible != 0 {
				t.Fatalf("warm epoch on the local socket: %d descriptors passed and %d sendfile-eligible serves, want some and none", passed, eligible)
			}
			return
		}
		if eligible == 0 {
			t.Fatal("warm epoch produced no zero-copy-eligible serves")
		}
		if runtime.GOOS == "linux" && sends == 0 {
			t.Fatal("warm epoch on linux produced no sendfile sends")
		}
	})
}

// TestZeroCopyMidSendConnectionDeath kills a client connection while
// the server is mid-sendfile on a 1 MiB warm payload: the serve fails
// on that connection only, the stats identity still resolves, and the
// server keeps serving byte-identical reads to healthy clients.
func TestZeroCopyMidSendConnectionDeath(t *testing.T) {
	checkResources(t)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writeSizedPFS(t, pfsDir, []int{1 << 20})
	want, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// The healthy client dials TCP too, so its reads also leave by sendfile.
	servers, cli := startCluster(t, pfsDir, 1, nil, func(c *ClientConfig) {
		c.DialTransport = func(addr string) transport.Transport {
			return dialOver("tcp", addr, transport.ClientOptions{})
		}
	})
	srv := servers[0]

	// Warm the cache so the raw-connection read below is an fd-lease serve.
	if _, err := cli.ReadAll(paths[0]); err != nil {
		t.Fatal(err)
	}
	srv.WaitIdle()

	// A raw protocol speaker: open the warm file, request the whole
	// payload, swallow a token amount, and slam the connection shut while
	// the server's sendfile loop still owes ~1 MiB.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteRequest(conn, &transport.Request{Op: transport.OpOpen, Path: paths[0]}); err != nil {
		t.Fatal(err)
	}
	opened, err := transport.ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	handle := opened.Handle
	opened.Release()
	if err := transport.WriteRequest(conn, &transport.Request{Op: transport.OpRead, Handle: handle, Off: 0, Len: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 512)
	if _, err := conn.Read(head); err != nil {
		t.Fatalf("reading the response head: %v", err)
	}
	_ = conn.Close() // mid-payload: the kernel still owes the socket ~1 MiB

	// The server must shrug: a healthy client still gets identical bytes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, rerr := cli.ReadAll(paths[0])
		if rerr != nil {
			t.Fatalf("read after mid-send death: %v", rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("bytes corrupted after a connection died mid-sendfile")
		}
		ss := srv.Stats()
		if ss.ZeroCopySends+ss.ZeroCopyFallbacks == ss.ZeroCopyEligible {
			if ss.ZeroCopyEligible < 2 {
				t.Fatalf("expected the dead and the healthy serve to be eligible, got %d", ss.ZeroCopyEligible)
			}
			break
		}
		// The dying serve may still be resolving its counters in the
		// server's connection goroutine; give it a moment.
		if time.Now().After(deadline) {
			t.Fatalf("stats identity never resolved: sends(%d)+fallbacks(%d) != eligible(%d)",
				ss.ZeroCopySends, ss.ZeroCopyFallbacks, ss.ZeroCopyEligible)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestZeroCopySizeRule pins which plane a warm read leaves by, on a
// server whose config names none, counted at the server so it reads the
// same on any machine. On the local socket a read that delivers passMin
// bytes or more leaves as the cache file's descriptor, whatever the
// file's size, and nothing there is sent by sendfile. Every other read
// goes by size: a file below zeroCopyMin leaves from its mapping, or is
// copied into the response once the mapping budget is spent; any other
// read under zeroCopyMin bytes is copied into the response, and no serve
// under zeroCopyMin is even eligible for sendfile. From zeroCopyMin up the
// lease is handed to sendfile and, on Linux, sent, never fallen back from.
// Both rules look at the bytes the read delivers alone, so a short read of
// a large file is buffered.
func TestZeroCopySizeRule(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, network string) {
		forEachMapping(t, func(t *testing.T, mapped bool) { testZeroCopySizeRule(t, network, mapped) })
	})
}

func testZeroCopySizeRule(t *testing.T, network string, mapped bool) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writeSizedPFS(t, pfsDir, []int{32 << 10, zeroCopyMin - 1, zeroCopyMin, zeroCopyMin + 1, 1 << 20})
	servers, cli := startCluster(t, pfsDir, 1, nil, nil)
	srv := servers[0]
	for _, p := range paths { // warm the cache; these reads are not the ones counted
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	srv.WaitIdle()
	conn := dialOver(network, srv.Addr(), transport.ClientOptions{})
	defer conn.Close()

	reads := []struct {
		path string
		len  int64
	}{
		{paths[0], 32 << 10},
		{paths[1], zeroCopyMin - 1},
		{paths[2], zeroCopyMin},
		{paths[3], zeroCopyMin + 1},
		{paths[4], 32 << 10},    // a short read of a large file
		{paths[4], zeroCopyMin}, // and one at the threshold
		{paths[0], zeroCopyMin}, // a long buffer over a short file: 32 KiB to deliver
		{paths[0], passMin - 1}, // a short read of a mapped file, below the floor
		{paths[0], passMin},     // and at it
		{paths[4], passMin - 1},
		{paths[4], passMin},
		{paths[4], 1 << 20},
		{paths[3], 1 << 20}, // a long request for zeroCopyMin+1 bytes
	}
	for _, rd := range reads {
		content, err := os.ReadFile(rd.path)
		if err != nil {
			t.Fatal(err)
		}
		want := content[:min(rd.len, int64(len(content)))]
		open, err := conn.Call(&transport.Request{Op: transport.OpOpen, Path: rd.path})
		if err != nil || !open.OK() {
			t.Fatalf("open %s: %v %v", rd.path, err, open.Error())
		}
		before := srv.Stats()
		resp, err := conn.Call(&transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: rd.len})
		if err != nil || !resp.OK() {
			t.Fatalf("read %d of %s: %v %v", rd.len, rd.path, err, resp.Error())
		}
		if !bytes.Equal(resp.Data, want) {
			t.Fatalf("read %d of %s: %d bytes that differ from the PFS copy", rd.len, rd.path, len(resp.Data))
		}
		resp.Release()
		after := srv.Stats()
		var wantEligible, wantPassed, wantMapped int64
		switch {
		case network == "local" && len(want) >= passMin:
			wantPassed = 1
		case mapped && len(content) < zeroCopyMin:
			wantMapped = 1
		case len(want) >= zeroCopyMin:
			wantEligible = 1
		}
		if got := after.ZeroCopyEligible - before.ZeroCopyEligible; got != wantEligible {
			t.Errorf("read %d of %s (%d bytes to deliver): %d sendfile-eligible serves, want %d", rd.len, rd.path, len(want), got, wantEligible)
		}
		if got := after.MappedSends - before.MappedSends; got != wantMapped {
			t.Errorf("read %d of %s (a %d-byte file): %d serves from its mapping, want %d", rd.len, rd.path, len(content), got, wantMapped)
		}
		if got := after.ZeroCopyFallbacks - before.ZeroCopyFallbacks; got != 0 {
			t.Errorf("read %d of %s: %d zero-copy fallbacks", rd.len, rd.path, got)
		}
		if got := after.ZeroCopySends - before.ZeroCopySends; runtime.GOOS == "linux" && got != wantEligible {
			t.Errorf("read %d of %s: %d zero-copy sends, want %d", rd.len, rd.path, got, wantEligible)
		}
		if got := after.Passed - before.Passed; got != wantPassed {
			t.Errorf("read %d of %s: %d descriptors passed, want %d", rd.len, rd.path, got, wantPassed)
		}
		cl, err := conn.Call(&transport.Request{Op: transport.OpClose, Handle: open.Handle})
		if err != nil {
			t.Fatal(err)
		}
		cl.Release()
		open.Release()
	}
}

// TestLeaseBudgetEveryReadServed reads more files than the process's
// descriptor budget may hold open — where the budget is small enough for
// a test to outnumber it, which scripts/check.sh arranges with a lowered
// `ulimit -n` — on both sides of zeroCopyMin: entries past the budget are
// served through descriptors their leases open and close, byte for byte
// like the rest, and (startCluster's check) every descriptor is gone once
// the server has closed. It runs with the small files mapped and with the
// mapping budget spent.
func TestLeaseBudgetEveryReadServed(t *testing.T) {
	files := int(min(cachestore.DescriptorBudget()+64, 512))
	t.Logf("%d files against a descriptor budget of %d", files, cachestore.DescriptorBudget())
	forEachMapping(t, func(t *testing.T, _ bool) {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		small := writePFS(t, filepath.Join(pfsDir, "small"), files/2, 4096)
		large := writePFS(t, filepath.Join(pfsDir, "large"), files/2, zeroCopyMin)
		servers, cli := startCluster(t, pfsDir, 1, nil, nil)
		for epoch := 0; epoch < 3; epoch++ {
			for i := range small {
				for _, p := range []string{small[i], large[i]} {
					got, err := cli.ReadAll(p)
					if err != nil {
						t.Fatalf("epoch %d: %s: %v", epoch, p, err)
					}
					want := 4096
					if p == large[i] {
						want = zeroCopyMin
					}
					if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, want)) {
						t.Fatalf("epoch %d: %s differs from the PFS copy", epoch, p)
					}
				}
			}
			servers[0].WaitIdle()
		}
		ss := servers[0].Stats()
		if ss.Misses != int64(len(small)+len(large)) {
			t.Fatalf("%d PFS passes for %d files", ss.Misses, len(small)+len(large))
		}
		if ss.ZeroCopyFallbacks != 0 || ss.ZeroCopySends+ss.ZeroCopyFallbacks != ss.ZeroCopyEligible {
			t.Fatalf("zero-copy accounting: %+v", ss)
		}
	})
}

// TestSendfileLeaseHeldUntilPeerAsks: a warm file whose lease went to
// the transport — by sendfile over TCP, as its passed descriptor on the
// local socket — keeps its lease until the peer's next request. A raw peer
// leaves the reply unread in its socket, which holds the file's own pages,
// or the descriptor that names the file itself; a second file's fill then
// evicts the first. Were the lease gone, the fill would recycle the
// evicted file and overwrite it in place, and the peer would read the
// second file's bytes.
func TestSendfileLeaseHeldUntilPeerAsks(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, network string) {
		const size = 2 * zeroCopyMin // handed over whole, and the socket's buffer holds it
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, 2, size)
		want, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
			c.CacheCapacity = size + size/2 // room for one file
			c.Movers = 1
		}, func(c *ClientConfig) {
			c.DialTransport = func(addr string) transport.Transport {
				return dialOver(network, addr, transport.ClientOptions{})
			}
		})
		srv := servers[0]
		if _, err := cli.ReadAll(paths[0]); err != nil {
			t.Fatal(err)
		}
		srv.WaitIdle()

		rawNet, rawAddr := "tcp", srv.Addr()
		if network == "local" {
			rawNet, rawAddr = "unix", "@hvac/"+rawAddr // named after the TCP address (transport's local_linux.go)
		}
		raw, err := net.Dial(rawNet, rawAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		call := func(req *transport.Request) *transport.Response {
			t.Helper()
			if err := transport.WriteRequest(raw, req); err != nil {
				t.Fatal(err)
			}
			resp, err := transport.ReadResponse(raw)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(resp.Release)
			return resp
		}
		handle := call(&transport.Request{Op: transport.OpOpen, Path: paths[0]}).Handle
		handedOver := func(st ServerStats) int64 { return st.ZeroCopySends + st.Passed }
		before := handedOver(srv.Stats())
		if err := transport.WriteRequest(raw, &transport.Request{Op: transport.OpRead, Handle: handle, Len: size}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); handedOver(srv.Stats()) == before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the read's lease never left by sendfile or as a descriptor")
			}
		}

		if _, err := cli.ReadAll(paths[1]); err != nil { // its fill evicts the first file
			t.Fatal(err)
		}
		srv.WaitIdle()
		if st := srv.Stats(); st.Evictions == 0 {
			t.Fatalf("the second fill evicted nothing: %+v", st)
		}
		var got []byte
		if network == "local" {
			got = readPassedReply(t, raw)
		} else {
			resp, err := transport.ReadResponse(raw)
			if err != nil {
				t.Fatal(err)
			}
			got = bytes.Clone(resp.Data)
			resp.Release()
		}
		if !bytes.Equal(got, want) {
			t.Fatal("the unread reply changed under the peer: its lease was released before the peer asked again")
		}
		if err := transport.WriteRequest(raw, &transport.Request{Op: transport.OpClose, Handle: handle}); err != nil { // one-way: no reply to read
			t.Fatal(err)
		}
		checkNetwork(t, network, srv)
	})
}

// TestMappedLeaseHeldUntilWritten: a reply spliced from a mapping keeps
// its lease until the reply is released after its write. An eviction
// while the reply waits must leave the mapping, and so the reply, intact;
// were the lease released with the handler's return, the eviction would
// recycle the file, unmap it and overwrite it with the next file's bytes.
func TestMappedLeaseHeldUntilWritten(t *testing.T) {
	r := newLadderRig(t, "", ladderSize)
	want, err := os.ReadFile(r.paths[0])
	if err != nil {
		t.Fatal(err)
	}
	r.fill(r.paths[0])
	opened, err := r.call(&transport.Request{Op: transport.OpOpen, Path: r.paths[0]})
	if err != nil {
		t.Fatal(err)
	}
	handle := opened.Handle
	opened.Release()
	resp := r.srv.handle(&transport.Request{Op: transport.OpRead, Handle: handle, Len: r.size})
	if st := r.srv.Stats(); st.MappedSends != 1 {
		resp.Release()
		t.Fatalf("the read was not spliced from a mapping: %+v", st)
	}
	r.evict()
	var wire bytes.Buffer
	err = transport.WriteResponse(&wire, resp)
	resp.Release()
	if err != nil {
		t.Fatal(err)
	}
	got, err := transport.ReadResponse(&wire)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if !bytes.Equal(got.Data, want) {
		t.Fatal("the spliced reply changed under an eviction: its lease was released before the write")
	}
}
