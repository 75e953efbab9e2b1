// Command hvacd runs a real-mode HVAC server daemon: it caches files from
// a PFS-visible dataset directory onto fast node-local storage and serves
// them to HVAC clients over TCP (the paper's per-node server process,
// normally spawned by the job script's alloc_flags "hvac").
//
// Usage:
//
//	hvacd -listen :7070 -pfs /gpfs/dataset -cache /nvme/hvac \
//	      -capacity 1600000000000 -movers 1 -evict random
//
// Run i copies per node (distinct ports and cache dirs) for the paper's
// HVAC(i×1) deployments, or a single daemon with -movers i.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hvac"
	"hvac/internal/cachestore"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7070", "TCP listen address")
		pfsDir   = flag.String("pfs", "", "dataset directory on the shared PFS (required)")
		cacheDir = flag.String("cache", "", "node-local cache directory (required)")
		capacity = flag.Int64("capacity", 1600e9, "cache capacity in bytes (default: Summit's 1.6 TB NVMe)")
		movers   = flag.Int("movers", 0, "data-mover workers (0 = default pool, currently 4)")
		evict    = flag.String("evict", "random", "eviction policy: random|lru|fifo|clairvoyant")
		peers    = flag.String("peers", "", "comma-separated addresses of every server in the job (self included, same order everywhere); enables replica warming")
		self     = flag.Int("self", 0, "this server's index in -peers")
		replicas = flag.Int("replicas", 1, "replica homes per file; demand fills warm the other homes when -peers is set (must match the clients' -replicas)")
		seed     = flag.Uint64("seed", 0, "seed for random eviction")
		stats    = flag.Duration("stats", 0, "print stats every interval (0 = off)")
		writeTO  = flag.Duration("write-timeout", 0, "per-response write deadline so dead clients cannot pin connections (0 = transport default, negative = disabled)")
		zeroCopy = flag.Bool("zero-copy", runtime.GOOS == "linux", "serve warm cache reads with sendfile from the cache fd (Linux); off (or unsupported) falls back to pooled userspace copies")
	)
	flag.Parse()
	if *pfsDir == "" || *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "hvacd: -pfs and -cache are required")
		flag.Usage()
		os.Exit(2)
	}

	var policy hvac.EvictionPolicy
	switch *evict {
	case "random":
		policy = hvac.RandomEviction(*seed)
	case "lru":
		policy = hvac.LRUEviction()
	case "fifo":
		policy = hvac.FIFOEviction()
	case "clairvoyant":
		policy = hvac.ClairvoyantEviction()
	default:
		fmt.Fprintf(os.Stderr, "hvacd: unknown eviction policy %q\n", *evict)
		os.Exit(2)
	}

	srv, err := hvac.StartServer(hvac.ServerConfig{
		ListenAddr:    *listen,
		PFSDir:        *pfsDir,
		CacheDir:      *cacheDir,
		CacheCapacity: *capacity,
		Policy:        policy,
		Movers:        *movers,
		WriteTimeout:  *writeTO,
		ZeroCopy:      *zeroCopy,
		Replicas:      *replicas,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvacd: %v\n", err)
		os.Exit(1)
	}
	if *peers != "" {
		set := strings.Split(*peers, ",")
		if *self < 0 || *self >= len(set) {
			fmt.Fprintf(os.Stderr, "hvacd: -self %d outside -peers (%d entries)\n", *self, len(set))
			srv.Close()
			os.Exit(2)
		}
		srv.SetPeers(set, *self)
		fmt.Printf("hvacd: replica warming across %d peers (self=%d, replicas=%d)\n", len(set), *self, *replicas)
	}
	moverDesc := fmt.Sprintf("%d", *movers)
	if *movers <= 0 {
		moverDesc = "default"
	}
	fmt.Printf("hvacd: serving %s on %s (cache %s, %s movers, %s eviction, %d cache descriptors from RLIMIT_NOFILE)\n",
		*pfsDir, srv.Addr(), *cacheDir, moverDesc, *evict, cachestore.DescriptorBudget())

	stop := make(chan struct{})
	if *stats > 0 {
		go func() {
			t := time.NewTicker(*stats)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					st := srv.Stats()
					fmt.Printf("hvacd: opens=%d hits=%d readthrough=%d misses=%d batch=%d served=%dB fetched=%dB evictions=%d cached=%d files/%dB queue=%d prefetch-drops=%d demand-rejects=%d replica-warms=%d plan=%d/%d@%d zerocopy=%d/%d (%dB, %d fallbacks)\n",
						st.Opens, st.Hits, st.ReadThroughs, st.Misses, st.BatchEntries, st.BytesServed, st.BytesFetched,
						st.Evictions, srv.CachedFiles(), srv.CachedBytes(), st.QueueDepth, st.PrefetchDrops, st.DemandRejects, st.ReplicaWarms,
						st.PlanPrefetches, st.PlanKeys, st.PlanFrontier,
						st.ZeroCopySends, st.ZeroCopyEligible, st.ZeroCopyBytes, st.ZeroCopyFallbacks)
					fmt.Printf("hvacd latencies:\n%s\n", srv.LatencySummary())
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("hvacd: shutting down, purging cache (job-coupled life cycle)")
	close(stop)
	srv.Close()
}
