package core

import (
	"bytes"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
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
			cfg.DisableFallback = true
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

// TestStressSegmentedParallelClients repeats the stress run in
// segment-level caching mode (§III-E), where the accounting identity
// moves to the read path: every segment read is a Hit or a ReadThrough.
func TestStressSegmentedParallelClients(t *testing.T) {
	const (
		files    = 12
		fileSize = 8 << 10
		segSize  = 1 << 10
		clients  = 4
		rounds   = 3
	)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, files, fileSize)

	servers, cli := startCluster(t, pfsDir, 1,
		func(cfg *ServerConfig) {
			cfg.SegmentSize = segSize
			cfg.CacheCapacity = files * fileSize / 3
			cfg.Movers = 4
		},
		func(cfg *ClientConfig) {
			cfg.SegmentSize = segSize
			cfg.DisableFallback = true
		})
	srv := servers[0]

	var (
		wg         sync.WaitGroup
		totalBytes atomic.Int64
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < files; k++ {
					i := (g*3 + k) % files
					got, err := cli.ReadAll(paths[i])
					if err != nil {
						t.Errorf("client %d round %d: ReadAll(%s): %v", g, r, paths[i], err)
						return
					}
					want := bytes.Repeat([]byte{byte(i)}, fileSize)
					if !bytes.Equal(got, want) {
						t.Errorf("client %d round %d: file %d content mismatch", g, r, i)
						return
					}
					totalBytes.Add(int64(len(got)))
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	srv.WaitIdle()

	st := srv.Stats()
	if st.Hits+st.ReadThroughs != st.Reads {
		t.Errorf("Hits (%d) + ReadThroughs (%d) = %d, want Reads = %d",
			st.Hits, st.ReadThroughs, st.Hits+st.ReadThroughs, st.Reads)
	}
	if st.BytesServed != totalBytes.Load() {
		t.Errorf("BytesServed = %d, want %d", st.BytesServed, totalBytes.Load())
	}
	cs := cli.Stats()
	if cs.Fallbacks != 0 {
		t.Errorf("client stats = %+v, want zero fallbacks", cs)
	}
}
