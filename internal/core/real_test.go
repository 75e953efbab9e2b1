package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hvac/internal/cachestore"
	"hvac/internal/testutil"
	"hvac/internal/transport"
)

// writePFS populates a fake PFS directory with deterministic content.
func writePFS(t *testing.T, dir string, files int, size int) []string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, files)
	for i := range paths {
		p := filepath.Join(dir, fmt.Sprintf("f%04d.bin", i))
		content := bytes.Repeat([]byte{byte(i)}, size)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	return paths
}

// checkResources requires that once the test has closed what it started,
// no goroutine, no descriptor — socket, PFS file, or a cache entry's
// held by a leaked lease or fill reference — and no pooled response is
// left over. Register it before anything the test starts. The goroutine
// check runs first, so the counts are read once nothing can move them.
func checkResources(t *testing.T) {
	t.Helper()
	testutil.CheckBalance(t, "pooled responses outstanding", transport.OutstandingResponses)
	testutil.CheckFDs(t)
	testutil.CheckLeaks(t)
}

// startCluster launches n real HVAC servers over pfsDir and a client,
// under checkResources.
func startCluster(t *testing.T, pfsDir string, n int, cfgMut func(*ServerConfig), cliMut func(*ClientConfig)) ([]*Server, *Client) {
	t.Helper()
	checkResources(t)
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		cfg := ServerConfig{
			ListenAddr: "127.0.0.1:0",
			PFSDir:     pfsDir,
			CacheDir:   filepath.Join(t.TempDir(), fmt.Sprintf("nvme%d", i)),
		}
		if cfgMut != nil {
			cfgMut(&cfg)
		}
		s, err := StartServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		servers[i] = s
		addrs[i] = s.Addr()
	}
	ccfg := ClientConfig{Servers: addrs, DatasetDir: pfsDir}
	if cliMut != nil {
		cliMut(&ccfg)
	}
	c, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return servers, c
}

// call round-trips req on link, failing the test on a link error, and
// releases the response when the test ends.
func call(t *testing.T, link transport.Transport, req *transport.Request) *transport.Response {
	t.Helper()
	resp, err := link.Call(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(resp.Release)
	return resp
}

// settle waits until every server's fills have retired: a fill writes
// behind the read it served.
func settle(servers []*Server) {
	for _, s := range servers {
		s.WaitIdle()
	}
}

// stopCluster closes a cluster ahead of its cleanup. A test that goes on
// to start a second one stops the first before it does, so that the
// second's checkResources counts nothing of the first still in flight: a
// fill writing behind its read, a client's hedge drain, a server response
// not yet released after its write.
func stopCluster(servers []*Server, cli *Client) {
	cli.Close()
	for _, s := range servers {
		s.Close()
	}
}

// hostileSize is a server link whose OK open replies claim size bytes,
// whatever the file holds: a corrupt or lying peer.
type hostileSize struct {
	transport.Transport
	size int64
}

func (h hostileSize) Call(req *transport.Request) (*transport.Response, error) {
	resp, err := h.Transport.Call(req)
	if err == nil && req.Op == transport.OpOpen && resp.OK() {
		resp.Size = h.size
	}
	return resp, err
}

// TestReadAllIgnoresHostileSize: ReadAll takes the size an open reply
// carries as a hint, never as an allocation. Told that a file holds 2^40
// bytes, or -1, it returns the file's bytes, cluster side included
// allocating a small multiple of what they need (under 1 MiB for a 32 KiB
// file), never a frame's worth.
func TestReadAllIgnoresHostileSize(t *testing.T) {
	for _, fileSize := range []int{32 << 10, 1<<20 + 7} {
		for _, claimed := range []int64{1 << 40, -1} {
			t.Run(fmt.Sprintf("size=%d/claimed=%d", fileSize, claimed), func(t *testing.T) {
				pfsDir := filepath.Join(t.TempDir(), "dataset")
				p := writePatternPFS(t, pfsDir, 1, fileSize)[0]
				want, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				_, cli := startCluster(t, pfsDir, 1, nil, func(c *ClientConfig) {
					c.DialTransport = func(addr string) transport.Transport {
						return hostileSize{transport.Dial(addr), claimed}
					}
				})
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got, err := cli.ReadAll(p)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("read %d bytes that differ from the PFS copy's %d", len(got), len(want))
				}
				if alloc, limit := after.TotalAlloc-before.TotalAlloc, max(1<<20, 8*uint64(fileSize)); alloc >= limit {
					t.Fatalf("ReadAll of a %d-byte file allocated %d bytes, want under %d", fileSize, alloc, limit)
				}
			})
		}
	}
}

func TestRealReadThroughCache(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 10, 1024)
	servers, cli := startCluster(t, pfsDir, 3, nil, nil)

	for i, p := range paths {
		got, err := cli.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte(i)}, 1024)
		if !bytes.Equal(got, want) {
			t.Fatalf("file %d content mismatch (%d bytes)", i, len(got))
		}
	}
	// Every file cached exactly once across the cluster (wait out the
	// background data-mover copies first).
	total := 0
	for _, s := range servers {
		s.WaitIdle()
		total += s.CachedFiles()
	}
	if total != 10 {
		t.Fatalf("cluster caches %d files, want 10", total)
	}
	st := cli.Stats()
	if st.Redirected != 10 || st.Fallbacks != 0 || st.Passthrough != 0 {
		t.Fatalf("client stats = %+v", st)
	}
}

func TestRealSecondReadIsCacheHit(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 4, 256)
	servers, cli := startCluster(t, pfsDir, 2, nil, nil)

	for _, p := range paths {
		cli.ReadAll(p)
	}
	for _, s := range servers {
		s.WaitIdle() // let the background data-movers finish the copies
	}
	var miss1 int64
	for _, s := range servers {
		st := s.Stats()
		miss1 += st.Misses
	}
	for _, p := range paths { // epoch 2
		cli.ReadAll(p)
	}
	var miss2, hits int64
	for _, s := range servers {
		st := s.Stats()
		miss2 += st.Misses
		hits += st.Hits
	}
	if miss1 != 4 {
		t.Fatalf("first epoch misses = %d, want 4", miss1)
	}
	if miss2 != miss1 {
		t.Fatalf("second epoch added misses: %d -> %d", miss1, miss2)
	}
	if hits != 4 {
		t.Fatalf("hits = %d, want 4 (every epoch-2 open served from cache)", hits)
	}
}

func TestRealPlacementIsStable(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 20, 64)
	_, cli := startCluster(t, pfsDir, 4, nil, nil)
	for _, p := range paths {
		if cli.Home(p) != cli.Home(p) {
			t.Fatal("unstable home")
		}
	}
	// Reading twice must not duplicate files across servers.
	for _, p := range paths {
		cli.ReadAll(p)
		cli.ReadAll(p)
	}
}

// TestHomeResolvesPathsAsOpenDoes: Home places the absolute, clean path
// that Open, Prefetch and ReadBatch place, so another spelling of a file
// names the server that holds it.
func TestHomeResolvesPathsAsOpenDoes(t *testing.T) {
	dir := t.TempDir()
	cli, err := NewClient(ClientConfig{Servers: []string{"s0:1", "s1:1", "s2:1", "s3:1"}, DatasetDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("f%04d.bin", i)
		clean, other := filepath.Join(dir, name), dir+"/./"+name
		if got, want := cli.Home(other), cli.Home(clean); got != want {
			t.Fatalf("Home(%s) = %d, Home(%s) = %d", other, got, clean, want)
		}
	}
}

func TestRealPassthroughOutsideDataset(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	writePFS(t, pfsDir, 1, 64)
	otherDir := t.TempDir()
	other := filepath.Join(otherDir, "outside.txt")
	os.WriteFile(other, []byte("not cached"), 0o644)
	servers, cli := startCluster(t, pfsDir, 2, nil, nil)

	got, err := cli.ReadAll(other)
	if err != nil || string(got) != "not cached" {
		t.Fatalf("passthrough read = %q, %v", got, err)
	}
	st := cli.Stats()
	if st.Passthrough != 1 || st.Redirected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for _, s := range servers {
		if s.CachedFiles() != 0 {
			t.Fatal("passthrough file was cached")
		}
	}
}

func TestRealServerRefusesOutsideDataset(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	writePFS(t, pfsDir, 1, 64)
	secret := filepath.Join(t.TempDir(), "secret.txt")
	os.WriteFile(secret, []byte("secret"), 0o600)
	_, cli := startCluster(t, pfsDir, 1, nil, func(c *ClientConfig) {
		c.DatasetDir = filepath.Dir(secret) // client would redirect it
		c.disableFallback = true
	})
	if _, err := cli.Open(secret); err == nil || !strings.Contains(err.Error(), "outside served dataset dir") {
		t.Fatalf("server accepted path outside its dataset dir: %v", err)
	}
}

func TestRealFallbackOnServerFailure(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 24, 128)
	servers, cli := startCluster(t, pfsDir, 2, nil, nil)

	servers[0].Close() // crash one server
	for i, p := range paths {
		got, err := cli.ReadAll(p)
		if err != nil {
			t.Fatalf("read %d after crash: %v", i, err)
		}
		if len(got) != 128 {
			t.Fatalf("read %d: %d bytes", i, len(got))
		}
	}
	st := cli.Stats()
	if st.Fallbacks == 0 {
		t.Fatal("no fallbacks recorded despite a dead server")
	}
	if st.Fallbacks+st.Redirected != 24 {
		t.Fatalf("fallbacks(%d)+redirected(%d) != 24", st.Fallbacks, st.Redirected)
	}
}

func TestRealReplicaFailover(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 30, 128)
	servers, cli := startCluster(t, pfsDir, 3, nil, func(c *ClientConfig) {
		c.Replicas = 2
		c.disableFallback = true // failover must come from replicas alone
	})
	servers[1].Close()
	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatalf("read with replica failover: %v", err)
		}
	}
	st := cli.Stats()
	if st.Failovers == 0 {
		t.Fatal("no failovers recorded; some files must home on the dead server")
	}
	if st.Fallbacks != 0 {
		t.Fatal("fallback used despite DisableFallback")
	}
}

func TestRealEvictionUnderPressure(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 10, 1000)
	servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
		c.CacheCapacity = 3500 // fits 3 of 10 files
		c.Policy = cachestore.NewLRU()
	}, nil)

	for range [3]int{} { // three epochs under pressure
		for _, p := range paths {
			got, err := cli.ReadAll(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1000 {
				t.Fatalf("short read: %d", len(got))
			}
		}
	}
	st := servers[0].Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite cache pressure")
	}
	if servers[0].CachedBytes() > 3500 {
		t.Fatalf("cache over capacity: %d", servers[0].CachedBytes())
	}
}

func TestRealConcurrentLoaders(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 30, 2048)
	_, cli := startCluster(t, pfsDir, 3, func(c *ServerConfig) { c.Movers = 2 }, nil)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := 0; e < 3; e++ {
				for i := range paths {
					p := paths[(i+w)%len(paths)]
					got, err := cli.ReadAll(p)
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) != 2048 {
						t.Errorf("short read %d", len(got))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := cli.Stats()
	if st.Redirected != 8*3*30 {
		t.Fatalf("redirected = %d, want %d", st.Redirected, 8*3*30)
	}
}

// Single-copy semantics: many clients hitting the same cold file cause
// exactly one PFS fetch (the §III-D mutex-on-shared-queue guarantee).
func TestRealSingleCopyUnderConcurrency(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 1, 1<<16)
	servers, cli := startCluster(t, pfsDir, 1, nil, nil)

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.ReadAll(paths[0]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Misses is bumped by the mover after the fill has committed, and the
	// readers are served the moment it commits: let the mover retire.
	servers[0].WaitIdle()
	st := servers[0].Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (single copy)", st.Misses)
	}
	if st.BytesFetched != 1<<16 {
		t.Fatalf("fetched %d bytes, want one file", st.BytesFetched)
	}
}

func TestRealRangedReads(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	p := filepath.Join(pfsDir, "big.bin")
	os.MkdirAll(pfsDir, 0o755)
	content := make([]byte, 100_000)
	for i := range content {
		content[i] = byte(i * 7)
	}
	os.WriteFile(p, content, 0o644)
	_, cli := startCluster(t, pfsDir, 2, nil, nil)

	f, err := cli.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != 100_000 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 1000)
	if _, err := f.ReadAt(buf, 50_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, content[50_000:51_000]) {
		t.Fatal("ranged read mismatch")
	}
	// Sequential Read advances the offset.
	head := make([]byte, 10)
	f2, _ := cli.Open(p)
	defer f2.Close()
	f2.Read(head)
	next := make([]byte, 10)
	f2.Read(next)
	if !bytes.Equal(head, content[:10]) || !bytes.Equal(next, content[10:20]) {
		t.Fatal("sequential reads misordered")
	}
}

func TestRealOpenMissingFile(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	writePFS(t, pfsDir, 1, 10)
	_, cli := startCluster(t, pfsDir, 1, nil, nil)
	if _, err := cli.Open(filepath.Join(pfsDir, "absent.bin")); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestRealCloseIdempotentAndPurge(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 2, 64)
	servers, cli := startCluster(t, pfsDir, 1, nil, nil)
	f, err := cli.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	cacheDir := servers[0].store.Dir()
	servers[0].Close()
	if _, err := os.Stat(cacheDir); !os.IsNotExist(err) {
		t.Fatalf("cache dir survives server close: %v", err)
	}
}

// A server dying between open and read must not fail the application:
// the handle degrades to a direct PFS handle mid-file.
func TestRealMidReadFailover(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 1, 50_000)
	servers, cli := startCluster(t, pfsDir, 1, nil, nil)

	f, err := cli.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	head := make([]byte, 1000)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	servers[0].Close() // crash while the handle is open
	rest := make([]byte, 49_000)
	n, err := f.ReadAt(rest, 1000)
	if err != nil && err != io.EOF {
		t.Fatalf("mid-read failover: %v", err)
	}
	if n != 49_000 {
		t.Fatalf("read %d bytes after failover, want 49000", n)
	}
	for i, b := range rest {
		if b != 0 { // writePFS fills file 0 with byte 0
			t.Fatalf("corrupt byte at %d: %d", i, b)
		}
	}
	if st := cli.Stats(); st.Degrades != 1 || st.Fallbacks != 0 {
		t.Fatalf("degrades = %d fallbacks = %d, want a single mid-read degrade", st.Degrades, st.Fallbacks)
	}
}

func TestRealLatencyHistograms(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 5, 4096)
	servers, cli := startCluster(t, pfsDir, 1, nil, nil)
	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	servers[0].WaitIdle()
	srv := servers[0]
	if srv.OpenLatency().Count() != 5 {
		t.Fatalf("open observations = %d", srv.OpenLatency().Count())
	}
	if srv.ReadLatency().Count() != 5 {
		t.Fatalf("read observations = %d", srv.ReadLatency().Count())
	}
	if srv.CopyLatency().Count() != 5 {
		t.Fatalf("copy observations = %d", srv.CopyLatency().Count())
	}
	sum := srv.LatencySummary()
	if !strings.Contains(sum, "open:") || !strings.Contains(sum, "copy:") {
		t.Fatalf("summary missing sections: %q", sum)
	}
}

func TestRealPrefetch(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 12, 512)
	servers, cli := startCluster(t, pfsDir, 2, nil, nil)

	if accepted := cli.Prefetch(paths); accepted != 12 {
		t.Fatalf("accepted = %d, want 12", accepted)
	}
	for _, s := range servers {
		s.WaitIdle()
	}
	cached := 0
	var misses int64
	for _, s := range servers {
		cached += s.CachedFiles()
		misses += s.Stats().Misses
	}
	if cached != 12 || misses != 12 {
		t.Fatalf("cached/misses = %d/%d, want 12/12", cached, misses)
	}
	// All subsequent opens are hits.
	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	var hits int64
	for _, s := range servers {
		hits += s.Stats().Hits
	}
	if hits != 12 {
		t.Fatalf("hits = %d, want 12 (prefetch made epoch 1 warm)", hits)
	}
	// Prefetch outside the dataset dir is refused client-side.
	if accepted := cli.Prefetch([]string{"/etc/hosts"}); accepted != 0 {
		t.Fatalf("prefetch outside dataset accepted: %d", accepted)
	}
}

func TestRealSegmentedReads(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	os.MkdirAll(pfsDir, 0o755)
	// One 100 KB file with distinctive content, 16 KB segments.
	content := make([]byte, 100_000)
	for i := range content {
		content[i] = byte(i * 13)
	}
	big := filepath.Join(pfsDir, "big.bin")
	os.WriteFile(big, content, 0o644)

	const segSize = 16 << 10
	servers, cli := startCluster(t, pfsDir, 3,
		func(c *ServerConfig) { c.SegmentSize = segSize },
		func(c *ClientConfig) { c.SegmentSize = segSize })

	got, err := cli.ReadAll(big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("segmented read corrupted content (%d bytes)", len(got))
	}
	for _, s := range servers {
		s.WaitIdle()
	}
	// Segments spread across multiple servers: 7 segments over 3 servers.
	totalSegs, serversWithSegs := 0, 0
	for _, s := range servers {
		if n := s.CachedFiles(); n > 0 {
			serversWithSegs++
			totalSegs += n
		}
	}
	if totalSegs != 7 {
		t.Fatalf("cached segments = %d, want 7 (100KB / 16KB)", totalSegs)
	}
	if serversWithSegs < 2 {
		t.Fatalf("segments all landed on one server; striping broken")
	}
	// Second read: all hits, byte-identical.
	got2, err := cli.ReadAll(big)
	if err != nil || !bytes.Equal(got2, content) {
		t.Fatalf("warm segmented read: %v", err)
	}
	var hits int64
	for _, s := range servers {
		hits += s.Stats().Hits
	}
	if hits != 7 {
		t.Fatalf("warm segment hits = %d, want 7", hits)
	}
	// Ranged read crossing segment boundaries.
	f, err := cli.Open(big)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	window := make([]byte, 40_000)
	if _, err := f.ReadAt(window, 30_000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(window, content[30_000:70_000]) {
		t.Fatal("cross-segment ranged read mismatch")
	}
}

func TestRealSegmentedFallbackOnFailure(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	os.MkdirAll(pfsDir, 0o755)
	content := bytes.Repeat([]byte{7}, 50_000)
	p := filepath.Join(pfsDir, "f.bin")
	os.WriteFile(p, content, 0o644)
	const segSize = 8 << 10
	servers, cli := startCluster(t, pfsDir, 2,
		func(c *ServerConfig) { c.SegmentSize = segSize },
		func(c *ClientConfig) { c.SegmentSize = segSize })
	servers[1].Close()
	got, err := cli.ReadAll(p)
	if err != nil {
		t.Fatalf("segmented read with dead server: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after fallback")
	}
}

// Protocol-level edge cases against a live server.
func TestRealServerProtocolEdges(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 1, 4096)
	servers, _ := startCluster(t, pfsDir, 1, func(c *ServerConfig) { c.SegmentSize = 1024 }, nil)
	conn := transport.Dial(servers[0].Addr())
	defer conn.Close()

	// Unknown op.
	resp := call(t, conn, &transport.Request{Op: transport.Op(99)})
	if resp.OK() {
		t.Fatalf("unknown op accepted: %v", resp)
	}
	// Bad handle read/close.
	resp = call(t, conn, &transport.Request{Op: transport.OpRead, Handle: 12345, Len: 10})
	if resp.OK() {
		t.Fatal("read on bad handle accepted")
	}
	resp = call(t, conn, &transport.Request{Op: transport.OpClose, Handle: 12345})
	if resp.OK() {
		t.Fatal("close on bad handle accepted")
	}
	// Oversized read length.
	open := call(t, conn, &transport.Request{Op: transport.OpOpen, Path: paths[0]})
	if !open.OK() {
		t.Fatalf("open failed: %s", open.Err)
	}
	resp = call(t, conn, &transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: transport.MaxFrame})
	if resp.OK() {
		t.Fatal("oversized read accepted")
	}
	// Negative length.
	resp = call(t, conn, &transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: -1})
	if resp.OK() {
		t.Fatal("negative read accepted")
	}
	// Segment read crossing a boundary is refused.
	resp = call(t, conn, &transport.Request{Op: transport.OpReadAt, Path: paths[0], Off: 1000, Len: 100})
	if resp.OK() {
		t.Fatal("cross-boundary segment read accepted")
	}
	if !strings.Contains(resp.Err, "segment boundary") {
		t.Fatalf("err = %q", resp.Err)
	}
	// Stat on a missing file.
	resp = call(t, conn, &transport.Request{Op: transport.OpStat, Path: filepath.Join(pfsDir, "gone")})
	if resp.OK() {
		t.Fatal("stat of missing file accepted")
	}
	// Stat on an existing file reports its size.
	resp = call(t, conn, &transport.Request{Op: transport.OpStat, Path: paths[0]})
	if !resp.OK() || resp.Size != 4096 {
		t.Fatalf("stat = %+v", resp)
	}
}

// OpReadAt against a server without segment caching enabled is refused.
func TestRealSegmentReadRequiresConfig(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 1, 4096)
	servers, _ := startCluster(t, pfsDir, 1, nil, nil)
	conn := transport.Dial(servers[0].Addr())
	defer conn.Close()
	if resp := call(t, conn, &transport.Request{Op: transport.OpReadAt, Path: paths[0], Off: 0, Len: 100}); resp.OK() {
		t.Fatal("segment read accepted without SegmentSize")
	}
}

// A read every rung of which fails — the PFS refuses every open, so the
// fill fails and so does the read-through — is a StatusError response,
// and the pooled response handleRead took for the payload goes back
// exactly once.
func TestRealReadWithNoRungLeftIsAnError(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 1, 4096)
	servers, _ := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
		c.OpenPFS = func(string) (*os.File, error) { return nil, os.ErrPermission }
	}, nil)
	conn := transport.Dial(servers[0].Addr())
	defer conn.Close()
	open := call(t, conn, &transport.Request{Op: transport.OpOpen, Path: paths[0]})
	if !open.OK() {
		t.Fatalf("open: %s", open.Err)
	}
	resp := call(t, conn, &transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: 4096})
	if resp.OK() || !strings.Contains(resp.Err, "pfs open") {
		t.Fatalf("read with the PFS refusing every open: status %d, %q", resp.Status, resp.Err)
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{DatasetDir: "/x"}); err == nil {
		t.Fatal("empty server list accepted")
	}
	if _, err := NewClient(ClientConfig{Servers: []string{"a:1"}}); err == nil {
		t.Fatal("empty dataset dir accepted")
	}
	c, err := NewClient(ClientConfig{Servers: []string{"a:1"}, DatasetDir: "/x"})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// openHandles counts the entries of s's open-handle table.
func openHandles(s *Server) int {
	n := 0
	for i := range s.handles.shards {
		sh := &s.handles.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// TestDeferredClosesReachServerByClientClose: a File's close is deferred
// onto its link and leaves with the link's next request, so once the
// readers stop, the last closes are still waiting on the pooled
// connections. Client.Close sends them: afterwards every server has
// closed every handle it opened and its handle table is empty; the
// response balance and the descriptor count come back (startCluster's
// checkResources).
func TestDeferredClosesReachServerByClientClose(t *testing.T) {
	const workers, rounds = 4, 3
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 24, 4<<10)
	servers, cli := startCluster(t, pfsDir, 2, nil, func(cfg *ClientConfig) { cfg.disableFallback = true })

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, p := range paths {
					if (i+g)%2 == 0 {
						if _, err := cli.ReadAll(p); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					f, err := cli.Open(p) // an open closed without a read
					if err != nil {
						t.Error(err)
						return
					}
					if err := f.Close(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var opens, closes int64
	for _, s := range servers {
		st := s.Stats()
		opens, closes = opens+st.Opens, closes+st.Closes
	}
	if opens != workers*rounds*int64(len(paths)) || closes >= opens {
		t.Fatalf("%d opens, %d closes before Client.Close: want %d opens and the last closes still deferred", opens, closes, workers*rounds*len(paths))
	}
	cli.Close()
	for i, s := range servers {
		if st := s.Stats(); st.Closes != st.Opens || openHandles(s) != 0 {
			t.Errorf("server %d after Client.Close: %d opens, %d closes, %d handles open", i, st.Opens, st.Closes, openHandles(s))
		}
	}
}
