package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hvac/internal/slab"
	"hvac/internal/testutil"
	"hvac/internal/transport"
)

// Tests for the hot path: wire-range validation, the condition-variable
// WaitIdle, the warm handleRead allocation budget, the sharded handle
// table under concurrency, and File.Read as a sequential reader.

// TestCheckReadLen pins checkRange, the one bound on a wire-supplied read
// range: its length and its offset.
func TestCheckReadLen(t *testing.T) {
	cases := []struct {
		off, n int64
		ok     bool
	}{
		{0, 0, true},
		{0, 1, true},
		{0, transport.MaxFrame / 2, true},
		{1 << 40, 1, true},
		{0, -1, false},
		{0, transport.MaxFrame/2 + 1, false},
		{0, transport.MaxFrame, false},
		{0, 1 << 62, false},
		{-1, 0, false},
		{-1, 1, false},
		{-1 << 62, 1, false},
	}
	for _, c := range cases {
		err := checkRange(c.off, c.n)
		if (err == nil) != c.ok {
			t.Errorf("checkRange(%d, %d) = %v, want ok=%v", c.off, c.n, err, c.ok)
		}
	}
}

func TestWaitIdle(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 8, 4096)
	servers, cli := startCluster(t, pfsDir, 1, nil, nil)
	srv := servers[0]

	// No in-flight copies: WaitIdle must return immediately, not hang on
	// a condition nobody will ever signal.
	done := make(chan struct{})
	go func() { srv.WaitIdle(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitIdle hung with no in-flight copies")
	}

	// Schedule real copies, then have several waiters block until the
	// movers drain; all must wake.
	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); srv.WaitIdle() }()
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("WaitIdle waiters never woke after the queue drained")
	}
	if srv.CachedFiles() != len(paths) {
		t.Fatalf("after WaitIdle: %d files cached, want %d", srv.CachedFiles(), len(paths))
	}
}

// TestHandleReadWarmAllocBudget pins the server's warm cached-read cost:
// with the pools primed, serving a read allocates at most one object per
// call (measurement noise headroom — the steady state is zero: pooled
// Response, pooled payload or pooled lease, sharded lookup, atomic
// stats), on both sides of zeroCopyMin — the 32 KiB read is a pread into
// the response's buffer, the 64 KiB one hands its lease over.
func TestHandleReadWarmAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race (sync.Pool drops Puts)")
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	p := filepath.Join(pfsDir, "f.bin")
	os.MkdirAll(pfsDir, 0o755)
	if err := os.WriteFile(p, make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	servers, _ := startCluster(t, pfsDir, 1, func(c *ServerConfig) { c.ZeroCopy = true }, nil)
	srv := servers[0]

	open := srv.handle(&transport.Request{Op: transport.OpOpen, Path: p})
	if !open.OK() {
		t.Fatal(open.Error())
	}
	srv.WaitIdle()
	for _, size := range []int64{32 << 10, 64 << 10} {
		req := &transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: size}
		for i := 0; i < 8; i++ {
			srv.handle(req).Release()
		}
		var leased bool
		if n := testing.AllocsPerRun(200, func() {
			resp := srv.handle(req)
			if !resp.OK() {
				t.Fatal(resp.Error())
			}
			leased = resp.FilePayload()
			resp.Release()
		}); n > 1 {
			t.Errorf("warm %d KiB handleRead allocates %.1f/op, want <= 1", size>>10, n)
		}
		if leased != (size >= zeroCopyMin) {
			t.Errorf("warm %d KiB handleRead: lease handed over = %v, zeroCopyMin is %d", size>>10, leased, zeroCopyMin)
		}
	}
}

// TestReadAllRecyclesBuffers pins the slab round trip a loader makes: a
// sample's buffer handed back with slab.Put is what the next ReadAll of
// that size refills, on every cycle, so a warm cycle allocates only
// per-call bookkeeping. It runs at 32 KiB, the small-file workloads' size,
// and at 4 MiB; a fresh make would cost the whole file every cycle.
func TestReadAllRecyclesBuffers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race (the transport's sync.Pools drop Puts)")
	}
	for _, size := range []int{32 << 10, 4 << 20} {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, 1, size)
		servers, cli := startCluster(t, pfsDir, 1, nil, nil)
		var put *byte // the buffer the last cycle put back
		misses := 0
		cycle := func() {
			b, err := cli.ReadAll(paths[0])
			if err != nil || len(b) != size {
				t.Fatalf("ReadAll = %d bytes, %v; want %d", len(b), err, size)
			}
			if put != nil && &b[0] != put {
				misses++
			}
			put = &b[0]
			slab.Put(b)
		}
		cycle()
		settle(servers) // the file is cached: later reads are warm
		what := fmt.Sprintf("a warm %d KiB ReadAll + slab.Put cycle", size>>10)
		checkWarmAllocs(t, what, warmAllocs(20, cycle), 8<<10)
		if misses > 0 {
			t.Errorf("%s got a buffer other than the one put back on %d of 21 cycles", what, misses)
		}
	}
}

// TestReadBatchRecyclesBuffers pins the same round trip for a batch: each
// entry ReadBatch copies out of the response frame lands in a slab buffer
// the previous batch put back, so a warm 16 x 32 KiB batch whose entries
// all go back with slab.Put allocates less than one of its payloads, not
// the 512 KiB of a copy per entry.
func TestReadBatchRecyclesBuffers(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race (the transport's sync.Pools drop Puts)")
	}
	const files, size = 16, 32 << 10
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, files, size)
	servers, cli := startCluster(t, pfsDir, 1, nil, nil)
	put := map[*byte]bool{} // the buffers the last batch put back
	misses := 0
	batch := func() {
		out, err := cli.ReadBatch(paths)
		if err != nil {
			t.Fatal(err)
		}
		last := put
		put = map[*byte]bool{}
		for i, b := range out {
			if len(b) != size {
				t.Fatalf("%s: %d bytes, want %d", paths[i], len(b), size)
			}
			if len(last) > 0 && !last[&b[0]] {
				misses++
			}
			put[&b[0]] = true
			slab.Put(b)
		}
	}
	batch()
	settle(servers)
	what := fmt.Sprintf("a warm %d x %d KiB ReadBatch + slab.Put cycle", files, size>>10)
	checkWarmAllocs(t, what, warmAllocs(20, batch), size)
	if misses > 0 {
		t.Errorf("%s got %d entries in buffers other than those put back, over 21 batches", what, misses)
	}
}

// warmAllocs runs f once more to warm it, then runs it runs times and
// returns the heap bytes each run allocated, sorted.
func warmAllocs(runs int, f func()) []uint64 {
	f()
	per := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per)
	return per
}

// checkWarmAllocs holds the median of the sorted per-run allocations of
// what under budget: what a warm run costs. A median, not a mean: now and
// then a run finds a transport frame, the client's or an in-process
// server's, still out with the previous call's goroutine or emptied from
// its sync.Pool by a GC, and makes a fresh one of about a sample's size.
// The heap cannot tell that from a slab miss, so the callers pin the slab
// by the identity of the buffers it hands out.
func checkWarmAllocs(t *testing.T, what string, per []uint64, budget uint64) {
	t.Helper()
	if med := per[len(per)/2]; med >= budget {
		t.Errorf("%s allocates %d bytes (median of %d runs), want under %d: %v", what, med, len(per), budget, per)
	} else {
		t.Logf("%s: bytes per run %v", what, per)
	}
}

// TestConcurrentHandleReads hammers the sharded handle table and atomic
// counters from many goroutines over distinct handles (run under -race
// via make check): every read must see its own file's bytes.
func TestConcurrentHandleReads(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 32, 8192)
	servers, _ := startCluster(t, pfsDir, 1, nil, nil)
	srv := servers[0]

	handles := make([]int64, len(paths))
	for i, p := range paths {
		resp := srv.handle(&transport.Request{Op: transport.OpOpen, Path: p})
		if !resp.OK() {
			t.Fatal(resp.Error())
		}
		handles[i] = resp.Handle
	}
	srv.WaitIdle()

	const perWorker = 200
	var wg sync.WaitGroup
	for i := range handles {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			want := byte(idx)
			req := &transport.Request{Op: transport.OpRead, Handle: handles[idx], Len: 512}
			for j := 0; j < perWorker; j++ {
				req.Off = int64(j % 16 * 512)
				resp := srv.handle(req)
				if !resp.OK() {
					t.Error(resp.Error())
					return
				}
				for _, b := range resp.Data {
					if b != want {
						t.Errorf("handle %d read byte %d, want %d", handles[idx], b, want)
						resp.Release()
						return
					}
				}
				resp.Release()
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	wantReads := int64(len(handles) * perWorker)
	if st.Reads != wantReads {
		t.Errorf("Reads = %d, want %d (atomic counters dropped updates)", st.Reads, wantReads)
	}
	if st.BytesServed != wantReads*512 {
		t.Errorf("BytesServed = %d, want %d", st.BytesServed, wantReads*512)
	}
	for i := range handles {
		if resp := srv.handle(&transport.Request{Op: transport.OpClose, Handle: handles[i]}); !resp.OK() {
			t.Fatal(resp.Error())
		}
	}
}

// TestFileReadMatchesContent streams a file through File.Read — ReadAt at
// the handle's offset — with a buffer under bulkChunk, one synchronous
// chunk per Read, and with one over it, where every Read must ride the
// bulk pipeline: the probe holds the first OpRead until a second is in
// flight, which a reader fetching one chunk at a time never sends.
func TestFileReadMatchesContent(t *testing.T) {
	for _, tc := range []struct {
		name      string
		size, buf int
		pipelined bool
	}{
		{"4KiB buffer", 300_000, 4096, false},
		{"buffer over bulkChunk", 4*bulkChunk + bulkChunk/2, 2 * bulkChunk, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pfsDir := filepath.Join(t.TempDir(), "dataset")
			p := writePatternPFS(t, pfsDir, 1, tc.size)[0]
			content, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			probe := &overlapProbe{second: make(chan struct{})}
			_, cli := startCluster(t, pfsDir, 1, nil, func(c *ClientConfig) {
				if tc.pipelined {
					c.DialTransport = func(addr string) transport.Transport {
						probe.Transport = transport.DialWith(addr, transport.ClientOptions{})
						return probe
					}
				}
			})

			f, err := cli.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			buf := make([]byte, tc.buf)
			for {
				n, err := f.Read(buf)
				got.Write(buf[:n])
				if err != nil {
					break
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), content) {
				t.Fatalf("sequential Read returned %d bytes, mismatch with content (%d bytes)", got.Len(), len(content))
			}
			if st := cli.Stats(); st.BytesRead != int64(tc.size) || st.Degrades != 0 {
				t.Fatalf("a healthy sequential read of %d bytes left %+v", tc.size, st)
			}
			if tc.pipelined && probe.alone.Load() {
				t.Fatal("Read with a buffer over bulkChunk never had two chunk reads in flight")
			}
		})
	}
}

// overlapProbe holds the first OpRead on its link until a second one
// arrives, and records when none did.
type overlapProbe struct {
	transport.Transport
	reads  atomic.Int32
	second chan struct{}
	alone  atomic.Bool
}

func (p *overlapProbe) Call(req *transport.Request) (*transport.Response, error) {
	if req.Op == transport.OpRead {
		switch p.reads.Add(1) {
		case 1:
			select {
			case <-p.second:
			case <-time.After(10 * time.Second):
				p.alone.Store(true)
			}
		case 2:
			close(p.second)
		}
	}
	return p.Transport.Call(req)
}

// TestFileReadDegradesOnServerDeath kills the serving server mid-stream:
// the next Read's chunk fails, the handle degrades to the PFS, and the
// bytes keep coming out identical.
func TestFileReadDegradesOnServerDeath(t *testing.T) {
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	p := filepath.Join(pfsDir, "die.bin")
	os.MkdirAll(pfsDir, 0o755)
	content := make([]byte, 200_000)
	for i := range content {
		content[i] = byte(i * 7)
	}
	if err := os.WriteFile(p, content, 0o644); err != nil {
		t.Fatal(err)
	}
	servers, cli := startCluster(t, pfsDir, 1, nil, func(c *ClientConfig) {
		c.CallTimeout = 2 * time.Second
		c.RetryAttempts = 1
	})

	f, err := cli.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	buf := make([]byte, 8192)
	for i := 0; ; i++ {
		if i == 3 {
			servers[0].Close() // the handle dies with three chunks delivered
		}
		n, err := f.Read(buf)
		got.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), content) {
		t.Fatalf("read %d bytes after mid-stream server death, content mismatch", got.Len())
	}
	if st := cli.Stats(); st.Degrades == 0 {
		t.Error("server death during a sequential read did not degrade the handle to the PFS")
	}
}
