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

// The zero-copy serve plane (DESIGN.md §13) end to end: real TCP
// clusters with ServerConfig.ZeroCopy toggled, proving the sendfile
// path is invisible to clients (byte identity), survives connections
// dying mid-payload, and keeps the Sends+Fallbacks == Eligible
// accounting identity.

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

// TestZeroCopyByteIdentityOnOff reads the same dataset through two
// clusters — zero-copy armed and disarmed — across two epochs (the
// second is warm, so the armed cluster serves it through fd leases and
// sendfile) and requires every read to match the PFS bytes. On Linux
// the armed warm epoch must produce actual sendfile sends; disarmed, no
// serve may even be eligible.
func TestZeroCopyByteIdentityOnOff(t *testing.T) {
	sizes := []int{1, 511, 4096, zeroCopyMin - 1, zeroCopyMin, zeroCopyMin + 1, (1 << 20) + 7}
	for _, zc := range []bool{false, true} {
		name := "off"
		if zc {
			name = "on"
		}
		t.Run(name, func(t *testing.T) {
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
			servers, cli := startCluster(t, pfsDir, 2, func(c *ServerConfig) { c.ZeroCopy = zc }, nil)

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

			var eligible, sends int64
			for i, s := range servers {
				ss := s.Stats()
				if ss.ZeroCopySends+ss.ZeroCopyFallbacks != ss.ZeroCopyEligible {
					t.Fatalf("srv%d: sends(%d)+fallbacks(%d) != eligible(%d)",
						i, ss.ZeroCopySends, ss.ZeroCopyFallbacks, ss.ZeroCopyEligible)
				}
				eligible += ss.ZeroCopyEligible
				sends += ss.ZeroCopySends
			}
			if !zc && eligible != 0 {
				t.Fatalf("%d zero-copy serves with the plane disarmed", eligible)
			}
			if zc && eligible == 0 {
				t.Fatal("warm epoch produced no zero-copy-eligible serves")
			}
			if zc && runtime.GOOS == "linux" && sends == 0 {
				t.Fatal("warm epoch on linux produced no sendfile sends")
			}
		})
	}
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
	servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) { c.ZeroCopy = true }, nil)
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

// TestZeroCopySizeRule pins which plane a warm read leaves by, counted
// at the server so it reads the same on any machine: under zeroCopyMin
// bytes the payload is copied into the response and no serve is even
// eligible for sendfile, from zeroCopyMin up the lease is handed over
// and — on Linux over TCP — sent, never fallen back from. The rule looks
// at the read's length alone: a short read of a large file is buffered,
// a whole small file is too.
func TestZeroCopySizeRule(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writeSizedPFS(t, pfsDir, []int{32 << 10, zeroCopyMin - 1, zeroCopyMin, zeroCopyMin + 1, 1 << 20})
	servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) { c.ZeroCopy = true }, nil)
	srv := servers[0]
	for _, p := range paths { // warm the cache; these reads are not the ones counted
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	srv.WaitIdle()
	conn := transport.Dial(srv.Addr())
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
		var wantEligible int64
		if len(want) >= zeroCopyMin {
			wantEligible = 1
		}
		if got := after.ZeroCopyEligible - before.ZeroCopyEligible; got != wantEligible {
			t.Errorf("read %d of %s (%d bytes to deliver): %d sendfile-eligible serves, want %d", rd.len, rd.path, len(want), got, wantEligible)
		}
		if got := after.ZeroCopyFallbacks - before.ZeroCopyFallbacks; got != 0 {
			t.Errorf("read %d of %s: %d zero-copy fallbacks", rd.len, rd.path, got)
		}
		if got := after.ZeroCopySends - before.ZeroCopySends; runtime.GOOS == "linux" && got != wantEligible {
			t.Errorf("read %d of %s: %d sendfile sends, want %d", rd.len, rd.path, got, wantEligible)
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
// the server has closed.
func TestLeaseBudgetEveryReadServed(t *testing.T) {
	files := int(min(cachestore.DescriptorBudget()+64, 512))
	t.Logf("%d files against a descriptor budget of %d", files, cachestore.DescriptorBudget())
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	small := writePFS(t, filepath.Join(pfsDir, "small"), files/2, 4096)
	large := writePFS(t, filepath.Join(pfsDir, "large"), files/2, zeroCopyMin)
	servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) { c.ZeroCopy = true }, nil)
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
}
