package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hvac/internal/faultnet"
	"hvac/internal/testutil"
	"hvac/internal/transport"
)

// Tests for the batch read plane (DESIGN.md §5.3): the two-pass frame
// assembly in handleReadBatch and the client's concurrent fan-out.

// batchRequest encodes paths as an OpReadBatch request.
func batchRequest(t *testing.T, paths []string) *transport.Request {
	t.Helper()
	blob, err := transport.EncodeBatchPaths(paths)
	if err != nil {
		t.Fatal(err)
	}
	return &transport.Request{Op: transport.OpReadBatch, Path: blob}
}

// byteCounter is a writer that keeps only the count of what it is given.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// warmBatchCost reports what one warm handleReadBatch over files files of
// size bytes, and the encoding of its reply, cost in heap allocations and
// allocated bytes. The server splices each file, below zeroCopyMin, into
// the reply from its mapping if it has one (mapped), else preads it into
// the pooled frame.
func warmBatchCost(t *testing.T, mapped bool, files, size int) (allocs, bytesPerRun float64) {
	t.Helper()
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, files, size)
	servers, _ := startCluster(t, pfsDir, 1, nil, nil)
	srv := servers[0]
	req := batchRequest(t, paths)
	var wire byteCounter
	serve := func() {
		resp := srv.handle(req)
		wire = 0
		err := transport.WriteResponse(&wire, resp)
		if !resp.OK() || err != nil || int(wire) < files*(transport.BatchEntryOverhead+size) {
			t.Fatalf("warm batch: status %d, %d bytes on the wire, %v: %s", resp.Status, wire, err, resp.Err)
		}
		resp.Release()
	}
	serve() // cold: fills the cache
	srv.WaitIdle()
	cold := srv.Stats()
	for i := 0; i < 8; i++ {
		serve() // primes the frame, response, lease and segment pools
	}
	st := srv.Stats()
	if st.Hits != 8*int64(files) {
		t.Fatalf("priming batches were not all hits: %+v", st)
	}
	if n := st.MappedSends - cold.MappedSends; mapped && n != st.Hits || !mapped && n != 0 {
		t.Fatalf("mapped=%v: %d of %d hits left from mappings", mapped, n, st.Hits)
	}
	allocs = testing.AllocsPerRun(100, serve)

	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestHandleReadBatchWarmAllocBudget pins the warm batch plane's
// allocation cost on both payload planes of a hit: a 16 x 32 KiB batch is
// assembled in one pooled frame (and, with its files mapped, a pooled
// list of mapped segments), so what it allocates is per-batch
// bookkeeping — the decoded path list and the pass-1 plan — never
// payload, and nothing per entry. The count must not move when the payload grows eightfold, must
// not grow with the entry count, and a whole 512 KiB batch must allocate
// less than one of its 32 KiB payloads.
func TestHandleReadBatchWarmAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race (sync.Pool drops Puts)")
	}
	forEachMapping(t, func(t *testing.T, mapped bool) {
		const files, size = 16, 32 << 10
		allocs, perRun := warmBatchCost(t, mapped, files, size)
		smallAllocs, _ := warmBatchCost(t, mapped, files, size/8)
		t.Logf("warm %d x %d B batch: %.1f allocs, %.0f B allocated per batch (%.1f allocs at %d B)",
			files, size, allocs, perRun, smallAllocs, size/8)
		if allocs > smallAllocs+1 {
			t.Errorf("allocations scale with payload bytes: %.1f/batch at %d B files, %.1f at %d B", allocs, size, smallAllocs, size/8)
		}
		// Two per batch today; a per-entry allocation would add 16.
		const budget = 4
		if allocs > budget {
			t.Errorf("warm handleReadBatch allocates %.1f/batch, want <= %d whatever the entry count", allocs, budget)
		}
		if perRun >= size {
			t.Errorf("warm handleReadBatch allocates %.0f B per batch: a payload-sized allocation is back", perRun)
		}
	})
}

// TestHandleReadBatchMixedFrameGolden serves one batch holding every kind
// of entry — cache hits, misses served from their in-flight fills, an
// entry over what the frame budget has left (StatusAgain) and a path
// outside the dataset dir (StatusError) — and requires the data section
// the connection writes to equal, byte for byte, the one AppendBatchEntry
// builds from the PFS copies: what a client built before the two-pass
// server decodes. Both payload planes of a batch are in the frame: the
// misses' bodies read into the pooled frame, the hits' spliced in from
// their mappings — or, with the mapping budget spent, read in like the
// misses'.
func TestHandleReadBatchMixedFrameGolden(t *testing.T) {
	root := t.TempDir()
	pfsDir := filepath.Join(root, "dataset")
	paths := writePFS(t, pfsDir, 6, 8<<10)
	big := filepath.Join(pfsDir, "big.bin")
	f, err := os.Create(big)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse, exactly the whole budget: over what is left once any entry
	// precedes it. Never read — StatusAgain is a pass-1 verdict.
	if err := f.Truncate(transport.BatchResponseBudget); err != nil {
		t.Fatal(err)
	}
	f.Close()
	stray := filepath.Join(root, "stray.bin")
	if err := os.WriteFile(stray, []byte("not served"), 0o644); err != nil {
		t.Fatal(err)
	}

	forEachMapping(t, func(t *testing.T, mapped bool) {
		var opens *sync.Map
		servers, _ := startCluster(t, pfsDir, 1, func(c *ServerConfig) { opens = countingOpens(c) }, nil)
		srv := servers[0]
		warm, cold := paths[:3], paths[3:]
		srv.handle(batchRequest(t, warm)).Release()
		srv.WaitIdle()
		before := srv.Stats()

		batch := []string{warm[0], cold[0], stray, warm[1], big, cold[1], warm[2], cold[2]}
		var golden []byte
		for _, p := range batch {
			switch p {
			case stray:
				msg := fmt.Sprintf("hvac server: %s outside served dataset dir %s", stray, pfsDir)
				golden = transport.AppendBatchEntry(golden, transport.StatusError, []byte(msg))
			case big:
				golden = transport.AppendBatchEntry(golden, transport.StatusAgain, nil)
			default:
				content, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				golden = transport.AppendBatchEntry(golden, transport.StatusOK, content)
			}
		}

		served := srv.handle(batchRequest(t, batch))
		var wire bytes.Buffer
		err := transport.WriteResponse(&wire, served)
		served.Release()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := transport.ReadResponse(&wire)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Release()
		if !resp.OK() || resp.Size != int64(len(batch)) {
			t.Fatalf("batch response: status %d size %d err %q", resp.Status, resp.Size, resp.Err)
		}
		if !bytes.Equal(resp.Data, golden) {
			t.Fatalf("data section differs from the AppendBatchEntry encoding: %d bytes, want %d", len(resp.Data), len(golden))
		}
		if _, err := resp.BatchResults(len(batch)); err != nil {
			t.Fatalf("decode: %v", err)
		}

		srv.WaitIdle()
		st := srv.Stats()
		if hits, rts, entries := st.Hits-before.Hits, st.ReadThroughs-before.ReadThroughs, st.BatchEntries-before.BatchEntries; hits != 3 || rts != 3 || entries != 6 {
			t.Fatalf("accounting: hits=%d readthroughs=%d entries=%d, want 3/3/6", hits, rts, entries)
		}
		// A miss whose fill committed before pass 2 reached it is leased too.
		if n := st.MappedSends - before.MappedSends; mapped && n < 3 || !mapped && n != 0 {
			t.Fatalf("mapped=%v: %d entries left from their mappings, want at least the 3 hits with mappings and none without", mapped, n)
		}
		for _, p := range cold {
			if n := opensOf(opens, p); n != 1 {
				t.Fatalf("%s: %d PFS opens, want 1 (the mover's fill; the entry is served from it)", p, n)
			}
		}
		if n := opensOf(opens, big); n != 0 {
			t.Fatalf("the StatusAgain entry was opened %d times", n)
		}
	})
}

// TestReadBatchChurnRace runs concurrent ReadBatch callers against caches
// a third the size of the working set (run under -race by make check):
// entries resident in pass 1 are evicted before pass 2 reaches them,
// fills commit under readers, and still every payload must equal the PFS
// copy and every served entry must be exactly one hit or read-through —
// with the hits spliced from their mappings, and with them read into the
// frame once the mapping budget is spent.
func TestReadBatchChurnRace(t *testing.T) {
	const files, size, callers, rounds = 36, 4 << 10, 4, 12
	forEachMapping(t, func(t *testing.T, _ bool) {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, files, size)
		servers, cli := startCluster(t, pfsDir, 2, func(c *ServerConfig) {
			c.CacheCapacity = files * size / 2 / 3
		}, nil)

		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g) + 1))
				for r := 0; r < rounds; r++ {
					order := rng.Perm(files)[:files/2]
					batch := make([]string, len(order))
					for i, ix := range order {
						batch[i] = paths[ix]
					}
					got, err := cli.ReadBatch(batch)
					if err != nil {
						t.Errorf("caller %d round %d: %v", g, r, err)
						return
					}
					for i, ix := range order {
						if !bytes.Equal(got[i], bytes.Repeat([]byte{byte(ix)}, size)) {
							t.Errorf("caller %d round %d: %s differs from the PFS copy", g, r, batch[i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()

		if st := cli.Stats(); st.BatchFallbacks != 0 || st.BatchReads != callers*rounds*files/2 {
			t.Fatalf("client: batchreads=%d batchfallbacks=%d, want %d/0", st.BatchReads, st.BatchFallbacks, callers*rounds*files/2)
		}
		var evictions int64
		for i, s := range servers {
			s.WaitIdle()
			ss := s.Stats()
			if ss.Hits+ss.ReadThroughs != ss.Opens+ss.Reads+ss.BatchEntries {
				t.Fatalf("srv%d: hits(%d)+readthroughs(%d) != opens(%d)+reads(%d)+batchentries(%d)",
					i, ss.Hits, ss.ReadThroughs, ss.Opens, ss.Reads, ss.BatchEntries)
			}
			evictions += ss.Evictions
		}
		if evictions == 0 {
			t.Fatal("no evictions: the working set fit and the churn case is vacuous")
		}
	})
}

// TestReadBatchFanOutOneServerRefused fans a batch out over three
// servers while faultnet refuses every OpReadBatch to srv1: only srv1's
// entries degrade (to per-file reads, counted in BatchFallbacks), the
// other two groups are served as batch reads, and the bytes are intact.
// With every op to srv1 and srv2 refused and fallback disabled, the
// error is srv1's — the lowest failing server index — on every run,
// whichever goroutine failed first.
func TestReadBatchFanOutOneServerRefused(t *testing.T) {
	tc := chaosCase{
		name: "batch-fanout", servers: 3, files: 18, size: 1024,
		sched: faultnet.Schedule{Seed: 31, Rules: []faultnet.Rule{
			{Server: "srv1", Op: transport.OpReadBatch, Fault: faultnet.Refuse},
		}},
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)

	t.Run("degrades-one-group", func(t *testing.T) {
		inj := faultnet.New(tc.sched)
		defer inj.Close()
		_, cli := startChaosCluster(t, pfsDir, tc, inj, nil)
		onSrv1 := 0
		for _, p := range paths {
			if cli.Home(p) == 1 {
				onSrv1++
			}
		}
		if onSrv1 == 0 || onSrv1 == len(paths) {
			t.Fatalf("%d of %d files home on srv1; the case is vacuous", onSrv1, len(paths))
		}
		got, err := cli.ReadBatch(paths)
		if err != nil {
			t.Fatal(err)
		}
		for i := range paths {
			if !bytes.Equal(got[i], bytes.Repeat([]byte{byte(i)}, tc.size)) {
				t.Fatalf("entry %d has wrong bytes", i)
			}
		}
		st := cli.Stats()
		if st.BatchFallbacks != int64(onSrv1) || st.BatchReads != int64(len(paths)-onSrv1) {
			t.Fatalf("batchreads=%d batchfallbacks=%d, want %d/%d", st.BatchReads, st.BatchFallbacks, len(paths)-onSrv1, onSrv1)
		}
		if st.Fallbacks != 0 || st.Redirected != int64(onSrv1) {
			t.Fatalf("srv1's entries were not all served by per-file reads: %+v", st)
		}
	})

	t.Run("disable-fallback-names-lowest-server", func(t *testing.T) {
		hard := tc
		hard.sched = faultnet.Schedule{Seed: 32, Rules: []faultnet.Rule{
			{Server: "srv1", Fault: faultnet.Refuse},
			{Server: "srv2", Fault: faultnet.Refuse},
		}}
		inj := faultnet.New(hard.sched)
		defer inj.Close()
		_, cli := startChaosCluster(t, pfsDir, hard, inj, func(c *ClientConfig) { c.disableFallback = true })
		for i := 0; i < 8; i++ {
			_, err := cli.ReadBatch(paths)
			if err == nil {
				t.Fatal("ReadBatch succeeded with two servers refusing and fallback disabled")
			}
			if !strings.Contains(err.Error(), "srv1") {
				t.Fatalf("run %d: error does not name the lowest failing server srv1: %v", i, err)
			}
		}
	})
}

// TestReadBatchCorruptPassedEntryDegrades: a batch reply whose entry is
// marked passed with no descriptor behind it is a corrupt frame, and the
// batch degrades per entry: each path is read through the ordinary
// transaction and comes back intact. A proxy in front of a real server
// answers every OpReadBatch with such a reply and forwards the rest. On
// the local socket the exchange fails the call; over TCP no descriptor can
// come, and the reply fails to decode instead.
func TestReadBatchCorruptPassedEntryDegrades(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, network string) {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, 4, 16<<10)
		var real atomic.Pointer[Server]
		var proxy *transport.Server
		startProxy := func(c *ServerConfig) {
			var err error
			proxy, err = transport.Serve("127.0.0.1:0", func(req *transport.Request) *transport.Response {
				if req.Op != transport.OpReadBatch {
					return real.Load().handle(req)
				}
				body := make([]byte, 16) // off 0, len 0: the range is moot without a descriptor
				resp := transport.AcquireResponse()
				for range paths {
					resp.Data = transport.AppendBatchEntry(resp.Data, transport.StatusPassed, body)
				}
				resp.Size = int64(len(paths))
				return resp
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(proxy.Close)
		}
		// The proxy starts inside the cluster's resource checks, beside
		// its one server.
		servers, cli := startCluster(t, pfsDir, 1, startProxy, func(c *ClientConfig) {
			c.Servers = []string{proxy.Addr()}
			c.DialTransport = func(addr string) transport.Transport {
				return dialOver(network, addr, transport.ClientOptions{})
			}
		})
		real.Store(servers[0])
		got, err := cli.ReadBatch(paths)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range paths {
			want, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i], want) {
				t.Fatalf("entry %d: %d bytes that differ from the PFS copy", i, len(got[i]))
			}
		}
		if st := cli.Stats(); st.BatchReads != 0 || st.BatchFallbacks != int64(len(paths)) || st.Redirected != int64(len(paths)) {
			t.Fatalf("stats %+v: want every entry degraded to an ordinary read of its server", st)
		}
	})
}
