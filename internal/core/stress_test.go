package core

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"hvac/internal/transport"
)

// TestStressParallelClientsWithEviction hammers a single real-mode server
// with parallel clients reading an overlapping file set while the cache is
// too small to hold the dataset, so the evictor churns the whole time. Run
// under -race this exercises the handle table, the data-mover dedup map,
// the cachestore lease/evict protocol, and the stats counters concurrently.
//
// Afterwards the ServerStats must satisfy the exact accounting identity:
// every open was served either from cache or read through from the PFS
// (Hits + ReadThroughs == Opens), every open was closed, and every byte
// the clients received was counted exactly once.
func TestStressParallelClientsWithEviction(t *testing.T) {
	const (
		files    = 30
		fileSize = 8 << 10
		clients  = 6
		rounds   = 4
		window   = 12 // files per client per round; stride 5 => heavy overlap
	)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, files, fileSize)

	servers, cli := startCluster(t, pfsDir, 1,
		func(cfg *ServerConfig) {
			// ~1/3 of the dataset fits: the evictor stays busy.
			cfg.CacheCapacity = files * fileSize / 3
			cfg.Movers = 4
		},
		func(cfg *ClientConfig) {
			// A server failure must surface as a hard error, not a silent
			// PFS fallback that would skew the accounting below.
			cfg.disableFallback = true
		})
	srv := servers[0]

	var (
		wg         sync.WaitGroup
		totalOpens atomic.Int64
		totalBytes atomic.Int64
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < window; k++ {
					i := (g*5 + r + k) % files
					got, err := cli.ReadAll(paths[i])
					if err != nil {
						t.Errorf("client %d round %d: ReadAll(%s): %v", g, r, paths[i], err)
						return
					}
					want := bytes.Repeat([]byte{byte(i)}, fileSize)
					if !bytes.Equal(got, want) {
						t.Errorf("client %d round %d: file %d content mismatch (%d bytes)", g, r, i, len(got))
						return
					}
					totalOpens.Add(1)
					totalBytes.Add(int64(len(got)))
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	srv.WaitIdle() // drain the background data-movers before reading stats
	// A close leaves with its link's next request; the last few are still
	// waiting on the pooled connections until the client closes.
	cli.Close()

	st := srv.Stats()
	if st.Opens != totalOpens.Load() {
		t.Errorf("Opens = %d, want %d (one per successful ReadAll)", st.Opens, totalOpens.Load())
	}
	if st.Closes != st.Opens {
		t.Errorf("Closes = %d, want %d (every open closed)", st.Closes, st.Opens)
	}
	if st.Hits+st.ReadThroughs != st.Opens {
		t.Errorf("Hits (%d) + ReadThroughs (%d) = %d, want Opens = %d",
			st.Hits, st.ReadThroughs, st.Hits+st.ReadThroughs, st.Opens)
	}
	if st.BytesServed != totalBytes.Load() {
		t.Errorf("BytesServed = %d, want %d (every byte counted once)", st.BytesServed, totalBytes.Load())
	}
	if st.Evictions == 0 {
		t.Error("Evictions = 0, want churn: the cache holds 1/3 of the dataset")
	}
	// Every fill was demanded: by an open that missed (a ReadThrough), or —
	// an open handle does not pin its entry — by a read whose key was
	// evicted after its open hit, which takes one eviction of that key per
	// refill.
	if st.Misses > st.ReadThroughs+st.Evictions {
		t.Errorf("Misses (%d) exceed ReadThroughs (%d) + Evictions (%d): the mover completed copies nobody demanded", st.Misses, st.ReadThroughs, st.Evictions)
	}
	if used, cap := srv.CachedBytes(), int64(files*fileSize/3); used > cap {
		t.Errorf("cache over capacity after stress: used %d > %d", used, cap)
	}
	cs := cli.Stats()
	if cs.Fallbacks != 0 || cs.Passthrough != 0 {
		t.Errorf("client stats = %+v, want zero fallbacks and passthroughs", cs)
	}
}

// TestStressChurnRecyclesAroundSendfile churns a server through OpRead
// with the cache at a third of a 24 + 48 + 64 + 96 + 256 KiB dataset:
// every hit is a lease — over TCP in sendfile's hands at 64 KiB and up and
// spliced from its file's mapping below; on the local socket, at every
// size here, passed to the client as its descriptor, which is held as
// sendfile's lease is — every miss a staged fill that
// takes its file from the entry it evicts — one the size it needs or not,
// unmapped first — and an entry that is leased, or whose pages a socket
// may still hold, must be evicted the old way instead. Every byte
// delivered is the PFS copy's, both served identities hold, and
// startCluster's leak checks find no goroutine or descriptor left. PFS
// passes are counted twice: under four clients a key can be evicted
// between its open and its read (an open handle pins nothing), which costs
// that read a pass of its own, so there the passes only bound the fills; a
// lone client has nobody to evict under it, and there every pass is a
// completed fill's — one per cold file. Each socket's churn runs once with
// the small files mapped and once with the mapping budget spent.
func TestStressChurnRecyclesAroundSendfile(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, network string) {
		forEachMapping(t, func(t *testing.T, mapped bool) { testStressChurnRecyclesAroundSendfile(t, network, mapped) })
	})
}

func testStressChurnRecyclesAroundSendfile(t *testing.T, network string, mapped bool) {
	const perSize, rounds = 24, 3
	sizes := make([]int, 0, 5*perSize)
	total := 0
	for i := 0; i < perSize; i++ {
		// Distinct sizes name distinct files (writeSizedPFS); a few bytes
		// apart, so a recycled file is almost never the size it is needed
		// at. Over TCP two classes below zeroCopyMin leave from their
		// mappings, so victims are recycled out from under mappings as well
		// as sendfile; on the local socket every class leaves as the cache
		// file's descriptor, which the client preads from, so there
		// victims are recycled out from under passed descriptors.
		sizes = append(sizes, 24<<10+i, 48<<10+i, 64<<10+i, 96<<10+i, 256<<10+i)
		total += 24<<10 + 48<<10 + 64<<10 + 96<<10 + 256<<10 + 5*i
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writeSizedPFS(t, pfsDir, sizes)
	want := make([][]byte, len(paths))
	for i, p := range paths {
		var err error
		if want[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}

	var pfsOpens *sync.Map
	servers, cli := startCluster(t, pfsDir, 1,
		func(cfg *ServerConfig) {
			cfg.CacheCapacity = int64(total / 3)
			cfg.Movers = 4
			pfsOpens = countingOpens(cfg)
		},
		func(cfg *ClientConfig) {
			cfg.disableFallback = true
			cfg.DialTransport = func(addr string) transport.Transport {
				return dialOver(network, addr, transport.ClientOptions{})
			}
		})
	srv := servers[0]

	var reads, delivered atomic.Int64
	churn := func(clients int) (passes int64, st ServerStats) {
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for k := range paths {
						i := (k*(2*g+1) + 7*r) % len(paths) // every client its own order
						got, err := cli.ReadAll(paths[i])
						if err != nil {
							t.Errorf("client %d round %d: ReadAll(%s): %v", g, r, paths[i], err)
							return
						}
						if !bytes.Equal(got, want[i]) {
							t.Errorf("client %d round %d: %s differs from the PFS copy (%d bytes, want %d)", g, r, paths[i], len(got), len(want[i]))
							return
						}
						reads.Add(1)
						delivered.Add(int64(len(got)))
					}
				}
			}(g)
		}
		wg.Wait()
		srv.WaitIdle()
		for _, p := range paths {
			passes += opensOf(pfsOpens, p)
		}
		return passes, srv.Stats()
	}

	passes, st := churn(4)
	if t.Failed() {
		return
	}
	// A few reads in a hundred lose their key that way (more under the race
	// detector); readers sent to the PFS because fills fail would be all of them.
	if passes < st.Misses || passes > st.Misses+st.Misses/4 || st.Misses < int64(len(paths)) {
		t.Errorf("four clients: %d PFS passes for %d completed fills of %d files", passes, st.Misses, len(paths))
	}
	// The planes a leased hit may take: descriptors alone on the local
	// socket, sendfile and (with the budget unspent) mappings over TCP.
	local := network == "local"
	if st.Hits == 0 || (st.ZeroCopyEligible > 0) == local || (st.MappedSends > 0) != (mapped && !local) || (st.Passed > 0) != local ||
		st.Evictions < st.Misses-int64(len(paths)) {
		t.Errorf("four clients: hits %d (through a lease: %d sendfile, %d passed, %d mapped), evictions %d for %d fills: want a churn of leased hits and evicting fills",
			st.Hits, st.ZeroCopyEligible, st.Passed, st.MappedSends, st.Evictions, st.Misses)
	}
	alonePasses, st1 := churn(1)
	if fills := st1.Misses - st.Misses; alonePasses-passes != fills || fills == 0 {
		t.Errorf("one client: %d PFS passes for %d completed fills: want one pass per cold file", alonePasses-passes, fills)
	}
	// Nothing here fails a link, so a retry is a reply that did not go
	// out whole: a payload whose memory went away under its write.
	if r := cli.Stats().Retries; r != 0 {
		t.Errorf("%d transport retries in a churn with no faults", r)
	}
	cli.Close() // sends the closes still queued on the links
	st = srv.Stats()
	if st.Opens != reads.Load() || st.Hits+st.ReadThroughs != st.Opens || st.Closes != st.Opens {
		t.Errorf("opens %d (want %d) = hits %d + read-throughs %d, closes %d", st.Opens, reads.Load(), st.Hits, st.ReadThroughs, st.Closes)
	}
	if st.BytesServed != delivered.Load() {
		t.Errorf("BytesServed = %d, clients received %d", st.BytesServed, delivered.Load())
	}
	if st.ZeroCopySends+st.ZeroCopyFallbacks != st.ZeroCopyEligible {
		t.Errorf("sends(%d)+fallbacks(%d) != eligible(%d)", st.ZeroCopySends, st.ZeroCopyFallbacks, st.ZeroCopyEligible)
	}
	if used := srv.CachedBytes(); used > int64(total/3) || st.DemandRejects != 0 {
		t.Errorf("cache at %d of %d bytes, %d demand rejects", used, total/3, st.DemandRejects)
	}
	checkNetwork(t, network, srv)
}
