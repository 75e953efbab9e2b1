package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hvac/internal/cachestore"
	"hvac/internal/faultnet"
	"hvac/internal/transport"
)

// countingOpens installs a counting OpenPFS seam on a server config and
// returns the per-path open counter. Every PFS data pass the server
// makes — mover fill or handler read-through — goes through it.
func countingOpens(cfg *ServerConfig) *sync.Map {
	var counts sync.Map
	cfg.OpenPFS = func(path string) (*os.File, error) {
		n, _ := counts.LoadOrStore(path, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		return os.Open(path)
	}
	return &counts
}

func opensOf(counts *sync.Map, path string) int64 {
	if n, ok := counts.Load(path); ok {
		return n.(*atomic.Int64).Load()
	}
	return 0
}

// TestColdFileSinglePFSOpen is the serve-from-fill acceptance test: a
// cold file costs exactly one PFS data pass — the data-mover's fill —
// where the pre-overhaul path cost two (the handler's read-through plus
// the mover's copy). Warm reads cost zero.
func TestColdFileSinglePFSOpen(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 8, 64<<10)
	var counts *sync.Map
	servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
		counts = countingOpens(c)
	}, nil)

	for i, p := range paths {
		got, err := cli.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64<<10)) {
			t.Fatalf("cold read %s returned wrong bytes", p)
		}
	}
	servers[0].WaitIdle()
	for _, p := range paths {
		if n := opensOf(counts, p); n != 1 {
			t.Fatalf("cold file %s cost %d PFS opens, want exactly 1", p, n)
		}
	}

	// Warm epoch: everything from cache, zero new PFS passes.
	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range paths {
		if n := opensOf(counts, p); n != 1 {
			t.Fatalf("warm read of %s grew PFS opens to %d", p, n)
		}
	}
	st := servers[0].Stats()
	if st.ReadThroughs != int64(len(paths)) || st.Hits != int64(len(paths)) {
		t.Fatalf("stats = %+v, want %d read-throughs and %d hits", st, len(paths), len(paths))
	}
}

// TestNotAdmittedReadsPFSOnce: a miss the cache cannot admit — a file
// over the capacity, or any miss once a keep store is full — costs one
// PFS pass, the server's own read, and takes no cache file: the store
// refuses the fill before the mover opens the source. Through ReadAll and
// ReadBatch alike.
func TestNotAdmittedReadsPFSOnce(t *testing.T) {
	const size = 64 << 10
	for _, tc := range []struct {
		name     string
		capacity int64
		policy   func() cachestore.Policy
		kept     int // of the 8 files, the ones the cache keeps
	}{
		{"over-capacity-random", 32 << 10, nil, 0},
		{"full-keep", 4 * size, cachestore.NewKeep, 4},
	} {
		for _, via := range []string{"ReadAll", "ReadBatch"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				pfsDir := filepath.Join(t.TempDir(), "dataset")
				paths := writePFS(t, pfsDir, 8, size)
				var counts *sync.Map
				servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
					counts = countingOpens(c)
					c.CacheCapacity = tc.capacity
					if tc.policy != nil {
						c.Policy = tc.policy()
					}
				}, nil)
				srv := servers[0]
				// The files the cache keeps are read first, one at a time, so
				// that the store is full when the rest arrive.
				read := func(ps []string) {
					got := make([][]byte, len(ps))
					if via == "ReadAll" {
						for i, p := range ps {
							var err error
							if got[i], err = cli.ReadAll(p); err != nil {
								t.Fatal(err)
							}
						}
					} else {
						var err error
						if got, err = cli.ReadBatch(ps); err != nil {
							t.Fatal(err)
						}
					}
					srv.WaitIdle()
					for i, p := range ps {
						if !bytes.Equal(got[i], bytes.Repeat([]byte{byte(slices.Index(paths, p))}, size)) {
							t.Fatalf("%s returned wrong bytes", p)
						}
						if n := opensOf(counts, p); n != 1 {
							t.Fatalf("%s cost %d PFS opens, want 1", p, n)
						}
					}
				}
				for _, p := range paths[:tc.kept] {
					read([]string{p})
				}
				refused := paths[tc.kept:]
				read(refused)
				st := srv.Stats()
				if st.NotAdmitted != int64(len(refused)) || st.Misses != int64(tc.kept) || srv.CachedFiles() != tc.kept {
					t.Fatalf("%d not admitted, %d fills, %d cached; want %d, %d, %d",
						st.NotAdmitted, st.Misses, srv.CachedFiles(), len(refused), tc.kept, tc.kept)
				}
				for _, p := range refused {
					if srv.store.Resident(p) {
						t.Fatalf("%s was refused, yet it is cached", p)
					}
				}
				if ents, err := os.ReadDir(srv.store.Dir()); err != nil || len(ents) != tc.kept {
					t.Fatalf("%d files in the store for %d cached, %v", len(ents), tc.kept, err)
				}
			})
		}
	}
}

// TestColdConcurrentSingleOpen hammers one cold file from many
// goroutines: the fill is single-flighted, so the file still costs
// exactly one PFS open and every reader gets identical bytes.
func TestColdConcurrentSingleOpen(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 1, 256<<10)
	var counts *sync.Map
	servers, cli := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
		counts = countingOpens(c)
	}, nil)

	want := bytes.Repeat([]byte{0}, 256<<10)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := cli.ReadAll(paths[0])
			if err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(got, want) {
				errs[g] = fmt.Errorf("goroutine %d read wrong bytes", g)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	servers[0].WaitIdle()
	if n := opensOf(counts, paths[0]); n != 1 {
		t.Fatalf("concurrent cold reads cost %d PFS opens, want 1 (single-flight)", n)
	}
	if misses := servers[0].Stats().Misses; misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

// TestScheduleFetchCloseRace is the regression test for the
// send-on-closed-channel window the old teardown had: scheduleFetch used
// to enqueue outside the mutex while Close closed the queue channel.
// Hammer concurrent schedulers against Close under -race; the fix keeps
// the non-blocking send under the same mutex that Close uses to flip
// closed, so no send can race the drain.
func TestScheduleFetchCloseRace(t *testing.T) {
	checkResources(t)
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 64, 512)

	for round := 0; round < 20; round++ {
		srv, err := StartServer(ServerConfig{
			ListenAddr: "127.0.0.1:0",
			PFSDir:     pfsDir,
			CacheDir:   filepath.Join(t.TempDir(), fmt.Sprintf("nvme%d", round)),
			Movers:     2,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i, p := range paths {
					srv.scheduleFetch(fetchTask{key: p, path: p}, (i+g)%2 == 0)
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			srv.Close()
		}()
		close(start)
		wg.Wait()
		srv.Close() // idempotent
	}
}

// TestReadBatchWarmAndCold checks the scatter-gather read end to end
// against a live cluster: a cold batch (served from fills, one PFS pass
// per file) and a warm batch return byte-identical content in path
// order, and the client accounts every file to BatchReads.
func TestReadBatchWarmAndCold(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 30, 4<<10)
	servers, cli := startCluster(t, pfsDir, 3, nil, nil)

	check := func(data [][]byte) {
		t.Helper()
		if len(data) != len(paths) {
			t.Fatalf("batch returned %d entries, want %d", len(data), len(paths))
		}
		for i := range data {
			if !bytes.Equal(data[i], bytes.Repeat([]byte{byte(i)}, 4<<10)) {
				t.Fatalf("batch entry %d has wrong bytes", i)
			}
		}
	}
	cold, err := cli.ReadBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	check(cold)
	for _, s := range servers {
		s.WaitIdle()
	}
	warm, err := cli.ReadBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	check(warm)

	st := cli.Stats()
	if st.BatchReads != int64(2*len(paths)) {
		t.Fatalf("BatchReads = %d, want %d", st.BatchReads, 2*len(paths))
	}
	if st.BatchFallbacks != 0 {
		t.Fatalf("BatchFallbacks = %d, want 0", st.BatchFallbacks)
	}
	var hits, rts, entries int64
	for _, s := range servers {
		ss := s.Stats()
		hits += ss.Hits
		rts += ss.ReadThroughs
		entries += ss.BatchEntries
	}
	if entries != int64(2*len(paths)) || rts != int64(len(paths)) || hits != int64(len(paths)) {
		t.Fatalf("server accounting: entries=%d rts=%d hits=%d, want %d/%d/%d",
			entries, rts, hits, 2*len(paths), len(paths), len(paths))
	}
}

// TestReadBatchPerEntryFallback serves a batch where one path is outside
// every server's allowed tree (but inside the client's dataset dir): the
// server answers that entry StatusError, the client falls back to the
// PFS for it alone, and the rest of the batch is served normally.
func TestReadBatchPerEntryFallback(t *testing.T) {
	root := filepath.Join(t.TempDir(), "pfs")
	pfsDir := filepath.Join(root, "dataset")
	paths := writePFS(t, pfsDir, 6, 2<<10)
	outside := filepath.Join(root, "stray.bin")
	if err := os.WriteFile(outside, bytes.Repeat([]byte{0xAB}, 2<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	// Servers only serve pfsDir; the client intercepts all of root.
	_, cli := startCluster(t, pfsDir, 2, nil, func(c *ClientConfig) {
		c.DatasetDir = root
	})

	batch := append(append([]string{}, paths...), outside)
	data, err := cli.ReadBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		if !bytes.Equal(data[i], bytes.Repeat([]byte{byte(i)}, 2<<10)) {
			t.Fatalf("entry %d has wrong bytes", i)
		}
	}
	if !bytes.Equal(data[len(paths)], bytes.Repeat([]byte{0xAB}, 2<<10)) {
		t.Fatal("fallback entry has wrong bytes")
	}
	st := cli.Stats()
	if st.BatchFallbacks != 1 {
		t.Fatalf("BatchFallbacks = %d, want 1", st.BatchFallbacks)
	}
	if st.BatchReads != int64(len(paths)) {
		t.Fatalf("BatchReads = %d, want %d", st.BatchReads, len(paths))
	}
}

// TestReadBatchDisableFallback turns the per-entry degradation into a
// hard error when fallback is disabled.
func TestReadBatchDisableFallback(t *testing.T) {
	root := filepath.Join(t.TempDir(), "pfs")
	pfsDir := filepath.Join(root, "dataset")
	paths := writePFS(t, pfsDir, 2, 1<<10)
	outside := filepath.Join(root, "stray.bin")
	if err := os.WriteFile(outside, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cli := startCluster(t, pfsDir, 1, nil, func(c *ClientConfig) {
		c.DatasetDir = root
		c.disableFallback = true
	})
	if _, err := cli.ReadBatch(append([]string{outside}, paths...)); err == nil {
		t.Fatal("ReadBatch with DisableFallback succeeded on a failing entry")
	}
}

// fakeBatchTransport answers OpReadBatch with scripted per-entry
// statuses, so the client's handling of StatusAgain (and decode plumbing)
// can be tested without a 64 MiB file forcing the real frame budget.
type fakeBatchTransport struct {
	t      *testing.T
	again  map[string]bool // paths to answer StatusAgain
	data   map[string][]byte
	opened string // path of the last OpOpen, read back by OpRead
}

func (f *fakeBatchTransport) Call(req *transport.Request) (*transport.Response, error) {
	switch req.Op {
	case transport.OpReadBatch:
		paths, err := transport.DecodeBatchPaths(req.Path)
		if err != nil {
			f.t.Errorf("server-side decode failed: %v", err)
			return nil, err
		}
		var out []byte
		for _, p := range paths {
			if f.again[p] {
				out = transport.AppendBatchEntry(out, transport.StatusAgain, nil)
				continue
			}
			out = transport.AppendBatchEntry(out, transport.StatusOK, f.data[p])
		}
		return &transport.Response{Status: transport.StatusOK, Size: int64(len(paths)), Data: out}, nil
	case transport.OpOpen:
		f.opened = req.Path
		return &transport.Response{Status: transport.StatusOK, Handle: 1, Size: int64(len(f.data[req.Path]))}, nil
	case transport.OpRead:
		data := f.data[f.opened]
		if req.Off >= int64(len(data)) {
			return &transport.Response{Status: transport.StatusOK}, nil
		}
		end := req.Off + req.Len
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		return &transport.Response{Status: transport.StatusOK, Data: data[req.Off:end]}, nil
	case transport.OpClose:
		return &transport.Response{Status: transport.StatusOK}, nil
	default:
		return &transport.Response{Status: transport.StatusError, Err: "unexpected op"}, nil
	}
}

func (f *fakeBatchTransport) Addr() string { return "fake" }
func (f *fakeBatchTransport) Close()       {}

// TestReadBatchAgainRetriesIndividually scripts a StatusAgain entry (the
// over-frame-budget signal) and checks the client re-reads exactly that
// path through the ordinary transaction.
func TestReadBatchAgainRetriesIndividually(t *testing.T) {
	dir := t.TempDir()
	small := filepath.Join(dir, "small.bin")
	big := filepath.Join(dir, "big.bin")
	smallData := bytes.Repeat([]byte{1}, 128)
	bigData := bytes.Repeat([]byte{2}, 4096)
	fake := &fakeBatchTransport{
		t:     t,
		again: map[string]bool{big: true},
		data:  map[string][]byte{small: smallData},
	}
	cli, err := NewClient(ClientConfig{
		Servers:    []string{"fake"},
		DatasetDir: dir,
		DialTransport: func(addr string) transport.Transport {
			return fake
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// The ordinary transaction the retry takes is OpOpen/OpRead/OpClose
	// against the same fake; serve big through it.
	fake.data[big] = bigData

	data, err := cli.ReadBatch([]string{small, big})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[0], smallData) || !bytes.Equal(data[1], bigData) {
		t.Fatal("batch with StatusAgain entry returned wrong bytes")
	}
	st := cli.Stats()
	if st.BatchReads != 1 || st.BatchFallbacks != 1 {
		t.Fatalf("stats = %+v, want BatchReads=1 BatchFallbacks=1", st)
	}
}

// TestReadBatchCallFailureDegrades severs the only server before a batch
// read: the whole group degrades to per-file reads, which themselves
// fall back to the PFS, and the bytes still come back correct.
func TestReadBatchCallFailureDegrades(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 5, 1<<10)
	servers, cli := startCluster(t, pfsDir, 1, nil, func(c *ClientConfig) {
		c.RetryAttempts = 1
	})
	servers[0].Close()

	data, err := cli.ReadBatch(paths)
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		if !bytes.Equal(data[i], bytes.Repeat([]byte{byte(i)}, 1<<10)) {
			t.Fatalf("degraded batch entry %d has wrong bytes", i)
		}
	}
	st := cli.Stats()
	if st.BatchFallbacks != int64(len(paths)) {
		t.Fatalf("BatchFallbacks = %d, want %d", st.BatchFallbacks, len(paths))
	}
	if st.Fallbacks != int64(len(paths)) {
		t.Fatalf("Fallbacks = %d, want %d (per-file PFS fallback)", st.Fallbacks, len(paths))
	}
}

// TestBatchedPrefetchPopulatesCaches checks Prefetch's batched hint
// path: every file lands in its home server's cache without any client
// read, and the hints cost one RPC per server rather than one per file.
func TestBatchedPrefetchPopulatesCaches(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 24, 2<<10)
	servers, cli := startCluster(t, pfsDir, 3, nil, nil)

	if accepted := cli.Prefetch(paths); accepted != len(paths) {
		t.Fatalf("Prefetch accepted %d, want %d", accepted, len(paths))
	}
	for _, s := range servers {
		s.WaitIdle()
	}
	cached := 0
	for _, s := range servers {
		cached += s.CachedFiles()
	}
	if cached != len(paths) {
		t.Fatalf("cached %d files after batched prefetch, want %d", cached, len(paths))
	}
	var calls int64
	for _, conn := range cli.conns {
		if cc, ok := conn.(interface{ Calls() int64 }); ok {
			calls += cc.Calls()
		}
	}
	if calls != int64(len(servers)) {
		t.Fatalf("batched prefetch cost %d RPCs, want %d (one per server)", calls, len(servers))
	}
}

// Regression: a batched hint that failed was re-sent as one single-path
// hint per path — each with its own retry budget — at the server that had
// just failed. A dead home now costs Prefetch one call per batch and accepts
// nothing; the other server's hints land as before.
func TestPrefetchDoesNotStormAFailedServer(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 24, 2<<10)
	// Every call on server 0's link is refused; each refusal is one
	// injected fault, so Injected counts the calls that link saw.
	inj := faultnet.New(faultnet.Schedule{Rules: []faultnet.Rule{{Server: "srv0", Fault: faultnet.Refuse}}})
	defer inj.Close()
	servers, cli := startCluster(t, pfsDir, 2, nil, func(c *ClientConfig) {
		dead := c.Servers[0]
		c.DialTransport = func(addr string) transport.Transport {
			link := transport.DialWith(addr, transport.ClientOptions{})
			if addr == dead {
				return inj.Wrap("srv0", link)
			}
			return link
		}
	})
	live := 0
	for _, p := range paths {
		live += cli.Home(p)
	}
	if live == 0 || live == len(paths) {
		t.Fatalf("%d of %d files homed on the live server; the case is vacuous", live, len(paths))
	}

	if accepted := cli.Prefetch(paths); accepted != live {
		t.Fatalf("Prefetch accepted %d, want the live server's %d", accepted, live)
	}
	if calls := inj.Injected(); calls != 1 {
		t.Fatalf("the refusing server was called %d times for one batch of hints, want 1", calls)
	}
	servers[1].WaitIdle()
	if cached := servers[1].CachedFiles(); cached != live {
		t.Fatalf("live server cached %d files, want %d", cached, live)
	}
}

// TestPrefetchDropsUnderBackpressure wedges the single mover inside its
// PFS open, fills the 2-deep prefetch queue past capacity, and checks
// the overflow hints are dropped and counted — never blocked on — while
// the queued ones complete once the mover is released.
func TestPrefetchDropsUnderBackpressure(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "pfs", "dataset")
	paths := writePFS(t, pfsDir, 8, 256)
	gate := make(chan struct{})
	servers, _ := startCluster(t, pfsDir, 1, func(c *ServerConfig) {
		c.prefetchQueue = 2
		c.Movers = 1
		c.OpenPFS = func(path string) (*os.File, error) {
			<-gate // wedge every fill until the test opens the gate
			return os.Open(path)
		}
	}, nil)
	srv := servers[0]

	for _, p := range paths {
		srv.scheduleFetch(fetchTask{key: p, path: p}, false)
	}
	// Capacity while wedged: one task in the mover (at most) plus two in
	// the queue; at least five of the eight hints must have been dropped.
	if drops := srv.Stats().PrefetchDrops; drops < 5 {
		t.Fatalf("PrefetchDrops = %d, want >= 5 with a wedged mover and a 2-deep queue", drops)
	}
	close(gate)
	srv.WaitIdle()
	dropped := srv.Stats().PrefetchDrops
	if got := int64(srv.CachedFiles()); got != int64(len(paths))-dropped {
		t.Fatalf("cached %d files, want %d (scheduled hints) after %d drops", got, int64(len(paths))-dropped, dropped)
	}
}

// The default mover pool fills concurrently: two cold prefetches must
// both reach the PFS before either is released. A single-mover pool
// would serialize them and time this out.
func TestMoverDefaultConcurrency(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 2, 1024)
	arrived := make(chan string, 2)
	release := make(chan struct{})
	servers, cli := startCluster(t, pfsDir, 1, func(cfg *ServerConfig) {
		cfg.OpenPFS = func(path string) (*os.File, error) {
			arrived <- path
			<-release
			return os.Open(path) //hvac:pfs-fallback test seam: rendezvous proving concurrent movers
		}
	}, nil)
	srv := servers[0]

	if n := cli.Prefetch(paths); n != 2 {
		t.Fatalf("prefetch accepted %d files, want 2", n)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			close(release) // unblock the stuck mover before failing
			t.Fatalf("only %d concurrent PFS opens; the default mover pool must fill in parallel", i)
		}
	}
	close(release)
	srv.WaitIdle()
	if got := srv.CachedFiles(); got != 2 {
		t.Fatalf("cached %d files after release, want 2", got)
	}
}
