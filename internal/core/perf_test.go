package core

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hvac/internal/cachestore"
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
// Response, pooled payload, pooled lease or pooled segment list, sharded
// lookup, atomic stats), on every payload plane — a 32 KiB read of a
// 1 MiB file is a pread into the response's buffer, a 64 KiB one hands
// its lease over, and a 32 KiB file's read splices in its mapping — or,
// with the mapping budget spent, is a pread like the first.
func TestHandleReadWarmAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets do not hold under -race (sync.Pool drops Puts)")
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	os.MkdirAll(pfsDir, 0o755)
	big, small := filepath.Join(pfsDir, "f.bin"), filepath.Join(pfsDir, "s.bin")
	for p, n := range map[string]int{big: 1 << 20, small: 32 << 10} {
		if err := os.WriteFile(p, make([]byte, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	forEachMapping(t, func(t *testing.T, mapped bool) {
		servers, _ := startCluster(t, pfsDir, 1, nil, nil)
		srv := servers[0]

		for _, tc := range []struct {
			path   string
			size   int64
			leased bool // the lease goes to sendfile
			mapped bool // the mapping is spliced in
		}{
			{big, 32 << 10, false, false},
			{big, zeroCopyMin, true, false},
			{small, 32 << 10, false, true},
		} {
			open := srv.handle(&transport.Request{Op: transport.OpOpen, Path: tc.path})
			if !open.OK() {
				t.Fatal(open.Error())
			}
			srv.WaitIdle()
			req := &transport.Request{Op: transport.OpRead, Handle: open.Handle, Len: tc.size}
			for i := 0; i < 8; i++ {
				srv.handle(req).Release()
			}
			var leased bool
			before := srv.Stats().MappedSends
			if n := testing.AllocsPerRun(200, func() {
				resp := srv.handle(req)
				if !resp.OK() {
					t.Fatal(resp.Error())
				}
				leased = resp.FilePayload()
				resp.Release()
			}); n > 1 {
				t.Errorf("warm %d KiB handleRead of %s allocates %.1f/op, want <= 1", tc.size>>10, tc.path, n)
			}
			if spliced := srv.Stats().MappedSends > before; leased != tc.leased || spliced != (tc.mapped && mapped) {
				t.Errorf("warm %d KiB handleRead of %s: lease handed over = %v, mapping spliced = %v; want %v, %v",
					tc.size>>10, tc.path, leased, spliced, tc.leased, tc.mapped && mapped)
			}
		}
	})
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
		c.DialTransport = func(addr string) transport.Transport {
			return transport.DialWith(addr, transport.ClientOptions{
				CallTimeout: 2 * time.Second,
				Retry:       transport.RetryPolicy{MaxAttempts: 1},
			})
		}
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

// kernelCost is what one operation costs the kernel, as counted by
// testutil.KernelCounts: read-class and write-class system calls, and the
// bytes through them per payload byte. As a budget it is a ceiling.
type kernelCost struct {
	readCalls, writeCalls, bytesPerByte float64
}

// clientConns is a kernelCluster client's counting dial: it keeps the
// counts of every connection the client makes (testutil.CountConn).
type clientConns struct {
	network string
	mu      sync.Mutex
	counts  []*testutil.SockCounts
}

func (c *clientConns) wrap(conn net.Conn) net.Conn {
	cc, n := testutil.CountConn(conn)
	c.mu.Lock()
	c.counts = append(c.counts, n)
	c.mu.Unlock()
	return cc
}

// totals sums the client's requests — one write each, the closes queued
// on the link riding in the same write, and each answered by one reply —
// and, over TCP, the read(2)s its replies took.
func (c *clientConns) totals() (requests, sockReads int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.counts {
		requests += n.Writes.Load()
		sockReads += n.ReadCalls.Load()
	}
	return requests, sockReads
}

// maxReadsPerReply bounds the client's read(2)s per reply over TCP. Its
// replies took 3.0 each for a 32 KiB read, and up to 4.6 for a batch and
// 5.2 for a 512 KiB chunk, at -cpu 1, 2 and 4 and under -race; a client that
// read each reply in more pieces would pass the read-class budgets, which
// count one per reply, but not this.
const maxReadsPerReply = 8

// checkKernelBudget runs op ops times, then settle, and holds what the
// kernel counted for the whole process over both, per op, under budget.
// The counts are exact where wall time is not, but they are the
// process's: the caller must not run in parallel with another test.
//
// Over TCP a reply reaches the client in as many pieces as the scheduler
// lets the sender and the receiver interleave, and each piece is a read;
// so there the client's read(2)s, which its counting dial counts, are
// taken out of the read-class count, and each reply counts one read — the
// message, not its pieces. Those read(2)s are held apart, under
// maxReadsPerReply per request. (The local socket's replies leave by
// sendmsg and arrive by recvmsg, which /proc/self/io does not count at
// all.) The bytes stay /proc/self/io's, which are exact either way.
// Requests per op are pinned exactly, unless requests is 0.
func checkKernelBudget(t *testing.T, ops int, payload int64, conns *clientConns, requests int64, op func(i int), settle func(), budget kernelCost) {
	t.Helper()
	before, ok := testutil.KernelCounts()
	if !ok {
		t.Skip("kernel counts unavailable")
	}
	reqs0, sock0 := conns.totals()
	for i := 0; i < ops; i++ {
		op(i)
	}
	settle()
	after, _ := testutil.KernelCounts()
	reqs1, sock1 := conns.totals()
	d := after.Sub(before)
	reqs, sockReads := reqs1-reqs0, sock1-sock0
	reads := d.ReadCalls
	if conns.network == "tcp" {
		reads += reqs - sockReads
	}
	n := float64(ops)
	got := kernelCost{
		readCalls:    float64(reads) / n,
		writeCalls:   float64(d.WriteCalls) / n,
		bytesPerByte: float64(d.ReadBytes+d.WriteBytes) / (n * float64(payload)),
	}
	t.Logf("per op: %.2f read-class calls, %.2f write-class calls, %.3f kernel bytes per payload byte (%d read, %d written), %.2f voluntary switches; %.2f requests, and %.2f read(2)s of their replies over TCP",
		got.readCalls, got.writeCalls, got.bytesPerByte, d.ReadBytes/int64(ops), d.WriteBytes/int64(ops), float64(d.VolSwitches)/n,
		float64(reqs)/n, float64(sockReads)/n)
	if conns.network == "tcp" && sockReads > maxReadsPerReply*reqs {
		t.Errorf("%d read(2)s of %d replies, want at most %d each", sockReads, reqs, maxReadsPerReply)
	}
	if requests != 0 && reqs != requests*int64(ops) {
		t.Errorf("%d requests over %d ops, want exactly %d each", reqs, ops, requests)
	}
	if got.readCalls > budget.readCalls {
		t.Errorf("%.2f read-class calls per op, budget %.2f", got.readCalls, budget.readCalls)
	}
	if got.writeCalls > budget.writeCalls {
		t.Errorf("%.2f write-class calls per op, budget %.2f", got.writeCalls, budget.writeCalls)
	}
	if got.bytesPerByte > budget.bytesPerByte {
		t.Errorf("%.3f kernel bytes per payload byte, budget %.3f", got.bytesPerByte, budget.bytesPerByte)
	}
}

// kernelCluster starts two servers over pfsDir, and a client that
// reaches them over network through a counting dial.
func kernelCluster(t *testing.T, network, pfsDir string, cfgMut func(*ServerConfig)) ([]*Server, *Client, *clientConns) {
	conns := &clientConns{network: network}
	servers, cli := startCluster(t, pfsDir, 2, cfgMut, func(c *ClientConfig) {
		c.DialTransport = func(addr string) transport.Transport {
			return dialOver(network, addr, transport.ClientOptions{}).WrapConns(conns.wrap)
		}
	})
	return servers, cli, conns
}

// readCycle returns an op that reads paths[i%len(paths)] whole, as the
// loader does, and gives its buffer back.
func readCycle(t *testing.T, cli *Client, paths []string, size int) func(i int) {
	return func(i int) {
		p := paths[i%len(paths)]
		b, err := cli.ReadAll(p)
		if err != nil || len(b) != size {
			t.Fatalf("read %s: %d bytes, %v", p, len(b), err)
		}
		slab.Put(b)
	}
}

// TestWarmReadKernelBudget: a warm 32 KiB ReadAll (open, read, and a
// one-way close that rides the next call's write: two requests) costs the
// kernel what it measured when the budget was set, at -cpu 1, 2 and 4.
// Over TCP the payload crosses the socket: 6.00 read-class calls with each
// reply counted as one (checkKernelBudget), 4.00 write-class calls (two messages each way, one write
// apiece), and 2.013 kernel bytes per payload byte (the payload once out
// of the mapping, once into the client, plus framing). On the local socket
// the read's reply is the cache file's descriptor (transport.Response.Pass,
// exactly one per ReadAll): its sendmsg and the client's recvmsg are not
// counted in /proc/self/io, so what shows is the open's exchange (a write
// and a read each way), the read's request (one write, one read), the
// client's pread of the range, which moves the payload once, and three
// reads that find a socket empty: 7.00 read-class and 3.00 write-class
// calls, 1.013 kernel bytes per payload byte. Before the descriptor plane
// took whole reads from 8 KiB the local socket read what TCP does. The
// slack is for the runtime's own calls.
func TestWarmReadKernelBudget(t *testing.T) {
	const size, files, ops = 32 << 10, 64, 1000
	budgets := map[string]kernelCost{
		// 4 message reads + 1 pread + 3 empty reads; 3 message writes.
		"local": {readCalls: 7.5, writeCalls: 3.5, bytesPerByte: 1.05},
		"tcp":   {readCalls: 6.5, writeCalls: 4.5, bytesPerByte: 2.05},
	}
	forEachNetwork(t, func(t *testing.T, network string) {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, files, size)
		servers, cli, conns := kernelCluster(t, network, pfsDir, nil)
		read := readCycle(t, cli, paths, size)
		for i := 0; i < 2*files; i++ {
			read(i)
		}
		settle(servers)
		before := passed(servers)
		checkKernelBudget(t, ops, size, conns, 2, read, func() {}, budgets[network])
		wantPassed := map[string]int64{"local": 1, "tcp": 0}[network]
		if got := passed(servers) - before; got != wantPassed*ops {
			t.Errorf("%d reads passed as descriptors over %d ReadAlls, want exactly %d each", got, ops, wantPassed)
		}
		checkNetwork(t, network, servers...)
	})
}

// TestWarmLargeReadKernelBudget: a warm 8 MiB ReadAll (open, the bulk
// pipeline's chunk reads, and a queued close) costs the kernel what it
// measured when the budget was set, at -cpu 1, 2 and 4. Over TCP every
// payload byte crosses the socket in sixteen 512 KiB chunks, seventeen
// requests with the open: sendfile counts it out and the client's
// read(2)s in, beside the cache file's read: 3.000 kernel bytes per
// payload byte, 66.0–66.1 write-class calls, and 66.8–67.1 read-class
// calls with each reply counted as one. On the local socket
// every chunk is a descriptor frame (passMin and up), and after the first
// one the rest of the file is one chunk per worker: four reads at most,
// fewer when the scheduler lets a worker take two shares (4.8–5.0 requests
// per op under -race), so that row's requests are not pinned. The server's
// sendmsg and the client's recvmsg are not counted in /proc/self/io, so
// the descriptor frames are invisible and only the client's pread of each
// range shows, once per payload byte: 15.5–16.1 read-class and 6.0–6.1
// write-class calls, 1.000 bytes per payload byte. Before the descriptor
// plane the local socket read 196.0 / 113.9 / 3.000.
func TestWarmLargeReadKernelBudget(t *testing.T) {
	const size, files, ops = 8 << 20, 4, 40
	budgets := map[string]kernelCost{
		"local": {readCalls: 17, writeCalls: 7, bytesPerByte: 1.05},
		"tcp":   {readCalls: 70, writeCalls: 67, bytesPerByte: 3.05},
	}
	forEachNetwork(t, func(t *testing.T, network string) {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, files, size)
		servers, cli, conns := kernelCluster(t, network, pfsDir, nil)
		read := readCycle(t, cli, paths, size)
		for i := 0; i < 2*files; i++ {
			read(i)
		}
		settle(servers)
		checkKernelBudget(t, ops, size, conns, map[string]int64{"local": 0, "tcp": 17}[network], read, func() {}, budgets[network])
		checkNetwork(t, network, servers...)
	})
}

// TestWarmBatchKernelBudget: a warm ReadBatch of 32 files of 32 KiB — one
// OpReadBatch per server — costs the kernel what it measured when the
// budget was set, per batch, at -cpu 1, 2 and 4. Over TCP each reply's
// entries are spliced from the cache files' mappings: 5.7–6.0
// read-class calls with each reply counted as one, 4.00–4.04 write-class
// calls, and 2.005 kernel bytes per payload
// byte (the payload once out of the mappings, once into the client). On the local socket every entry leaves as its cache file's
// descriptor (transport.Response.Pass), exactly 32 per batch:
// each reply is one sendmsg and its receive one recvmsg, which
// /proc/self/io does not count, so what shows is the two requests'
// writes, the servers' reads of them, and one pread per entry, which
// moves the payload once: 35.7–36.0 read-class calls (the 32 preads and
// about 4 reads) and 2.00–2.02 write-class calls, 1.004 bytes per
// payload byte. The
// read-class count is the one that rose with the descriptor plane, from
// 17.2–20.0, because the client's copy moved into a counted call; the
// plane took write-class calls from 10.0–12.0 (a 512 KiB reply outgrew
// the unix socket's send buffer and its writev returned short) and bytes
// from 2.005.
func TestWarmBatchKernelBudget(t *testing.T) {
	const size, files, batch, ops = 32 << 10, 64, 32, 200
	budgets := map[string]kernelCost{
		// batch preads of the entries, plus the servers' request reads
		// and the slack the runtime's own calls need.
		"local": {readCalls: batch + 5, writeCalls: 2.5, bytesPerByte: 1.05},
		"tcp":   {readCalls: 6.5, writeCalls: 4.5, bytesPerByte: 2.05},
	}
	forEachNetwork(t, func(t *testing.T, network string) {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, files, size)
		servers, cli, conns := kernelCluster(t, network, pfsDir, nil)
		read := func(i int) {
			lo := (i * batch) % files
			got, err := cli.ReadBatch(paths[lo : lo+batch])
			if err != nil {
				t.Fatalf("batch at %d: %v", lo, err)
			}
			for _, b := range got {
				if len(b) != size {
					t.Fatalf("batch at %d: an entry of %d bytes", lo, len(b))
				}
				slab.Put(b)
			}
		}
		for i := 0; i < 2*files/batch; i++ {
			read(i)
		}
		settle(servers)
		before := passed(servers)
		checkKernelBudget(t, ops, batch*size, conns, 2, read, func() {}, budgets[network])
		wantPassed := map[string]int64{"local": batch, "tcp": 0}[network]
		if got := passed(servers) - before; got != wantPassed*ops {
			t.Errorf("%d batch entries passed as descriptors over %d batches, want exactly %d per batch", got, ops, wantPassed)
		}
		checkNetwork(t, network, servers...)
	})
}

// passed sums the servers' Passed counters.
func passed(servers []*Server) int64 {
	var n int64
	for _, s := range servers {
		n += s.Stats().Passed
	}
	return n
}

// TestColdMissKernelBudget: a 64 KiB read that misses a full cache — the
// PFS open, a fill that recycles its victim's file, and the reply — costs
// the kernel what it measured when the budget was set, at -cpu 1, 2 and 4.
// The read's handler runs the fill itself: one copy_file_range moves the
// payload from the PFS file into the cache file (a read-class and a
// write-class call, two passes of the payload), and the reply serves the
// committed entry as any hit is served. On the local socket that reply is
// the cache file's descriptor, for every read (Passed counts each), so
// what shows is the warm read's count plus the copy: 8.00 read-class
// calls (7.8 in a few runs, where a read that would have found a socket
// empty was spared), 4.00 write-class calls and 3.006 kernel bytes per
// payload byte; the row allows only the runtime's own stray calls. Over
// TCP the reply leaves by sendfile, once more through the socket: 8.00 /
// 7.00 / 5.006 with each reply counted as one read. Voluntary context
// switches, logged, are 0.01–0.15 per read: no goroutine hands the fill
// on. LRU over a cycle twice the capacity makes every read a miss with an
// eviction.
func TestColdMissKernelBudget(t *testing.T) {
	const size, files, ops = 64 << 10, 64, 1000
	budgets := map[string]kernelCost{
		"local": {readCalls: 8.05, writeCalls: 4.05, bytesPerByte: 3.01},
		"tcp":   {readCalls: 8.5, writeCalls: 7.5, bytesPerByte: 5.1},
	}
	forEachNetwork(t, func(t *testing.T, network string) {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, files, size)
		servers, cli, conns := kernelCluster(t, network, pfsDir, func(c *ServerConfig) {
			c.CacheCapacity = files * size / 4 // each server holds a quarter: half in all
			c.Policy = cachestore.NewLRU()
		})
		read := readCycle(t, cli, paths, size)
		for i := 0; i < files; i++ {
			read(i)
		}
		settle(servers)
		// Each read is classified as it returns: a hit (resident at open)
		// whose reply left by lease with no eviction under it was served by
		// rung 1; a hit that found its entry evicted between open and read
		// was served by a fill. Stats snapshots make no system call, so
		// the counts stay the reads'.
		var hits, evictions, misses int64
		var hitLog []string
		last := make(map[int]int, files)
		before := make([]ServerStats, len(servers))
		for i, s := range servers {
			before[i] = s.Stats()
		}
		classify := func(i int) {
			pre := make([]ServerStats, len(servers))
			for j, s := range servers {
				pre[j] = s.Stats()
			}
			read(i)
			for j, s := range servers {
				st := s.Stats()
				if st.Hits == pre[j].Hits {
					continue
				}
				rung := "a fill (its entry was evicted under the open)"
				leased := st.ZeroCopyEligible > pre[j].ZeroCopyEligible || st.Passed > pre[j].Passed
				if leased && st.Evictions == pre[j].Evictions {
					rung = "rung 1 (a lease on the resident entry)"
				}
				since := "never"
				if k, ok := last[i%files]; ok {
					since = fmt.Sprintf("%d reads", i-k)
				}
				hitLog = append(hitLog, fmt.Sprintf("read %d of file %d on srv%d (last read %s before): served by %s", i, i%files, j, since, rung))
			}
			last[i%files] = i
		}
		checkKernelBudget(t, ops, size, conns, 2, classify, func() { settle(servers) }, budgets[network])
		wantPassed := map[string]int64{"local": ops, "tcp": 0}[network]
		var passedNow int64
		for i, s := range servers {
			passedNow += s.Stats().Passed - before[i].Passed
		}
		if passedNow != wantPassed {
			t.Errorf("%d of %d cold reads passed as descriptors, want %d", passedNow, ops, wantPassed)
		}
		for i, s := range servers {
			st := s.Stats()
			hits += st.Hits - before[i].Hits
			misses += st.Misses - before[i].Misses
			evictions += st.Evictions - before[i].Evictions
		}
		// Each fill commits before its read replies, so LRU order is the
		// reads' order and every read misses and evicts once, at every
		// -cpu.
		t.Logf("%d hits, %d misses (completed fills), %d evictions over %d reads", hits, misses, evictions, ops)
		for _, l := range hitLog {
			t.Log(l)
		}
		if hits != 0 || evictions != ops {
			t.Errorf("%d hits and %d evictions over %d reads, want every read a miss with an eviction", hits, evictions, ops)
		}
		checkNetwork(t, network, servers...)
	})
}
