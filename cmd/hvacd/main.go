// Command hvacd runs a real-mode HVAC server daemon: it caches files from
// a PFS-visible dataset directory onto fast node-local storage and serves
// them to HVAC clients over TCP, or over a local socket to a client on its
// own node (the paper's per-node server process,
// normally spawned by the job script's alloc_flags "hvac").
//
// Usage:
//
//	hvacd -listen :7070 -pfs /gpfs/dataset -cache /nvme/hvac \
//	      -capacity 1600000000000 -movers 1 -evict random|lru|fifo|keep
//
// Run i copies per node (distinct ports and cache dirs) for the paper's
// HVAC(i×1) deployments, or a single daemon with -movers i.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hvac"
	"hvac/internal/cachestore"
	"hvac/internal/metrics"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole daemon behind its arguments and output streams, so a
// test can drive it in process: it serves until ctx is done, then shuts
// the server down and returns the exit code.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hvacd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:7070", "TCP listen address; on Linux the daemon also claims the abstract unix socket @hvac/<address> (@hvac/*:<port> for a wildcard bind), which a client on this node dials first")
		pfsDir   = fs.String("pfs", "", "dataset directory on the shared PFS (required)")
		cacheDir = fs.String("cache", "", "node-local cache directory (required)")
		capacity = fs.Int64("capacity", 1600e9, "cache capacity in bytes (default: Summit's 1.6 TB NVMe)")
		movers   = fs.Int("movers", 0, "data-mover workers (0 = default pool, currently 4)")
		evict    = fs.String("evict", "random", "eviction policy: random|lru|fifo|keep (keep never evicts: a cache smaller than the dataset holds the files it admitted first and serves the rest from the PFS)")
		peers    = fs.String("peers", "", "comma-separated addresses of every server in the job (self included, same order everywhere); enables replica warming")
		self     = fs.Int("self", 0, "this server's index in -peers")
		replicas = fs.Int("replicas", 1, "replica homes per file; demand fills warm the other homes when -peers is set (must match the clients' -replicas)")
		seed     = fs.Uint64("seed", 0, "seed for random eviction")
		stats    = fs.Duration("stats", 0, "print stats every interval (0 = off)")
		writeTO  = fs.Duration("write-timeout", 0, "per-response write deadline so dead clients cannot pin connections (0 = transport default, negative = disabled)")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *pfsDir == "" || *cacheDir == "" {
		fmt.Fprintln(stderr, "hvacd: -pfs and -cache are required")
		fs.Usage()
		return 2
	}

	var policy hvac.EvictionPolicy
	switch *evict {
	case "random":
		policy = hvac.RandomEviction(*seed)
	case "lru":
		policy = hvac.LRUEviction()
	case "fifo":
		policy = hvac.FIFOEviction()
	case "keep":
		policy = hvac.KeepEviction()
	default:
		fmt.Fprintf(stderr, "hvacd: unknown eviction policy %q\n", *evict)
		return 2
	}

	srv, err := hvac.StartServer(hvac.ServerConfig{
		ListenAddr:    *listen,
		PFSDir:        *pfsDir,
		CacheDir:      *cacheDir,
		CacheCapacity: *capacity,
		Policy:        policy,
		Movers:        *movers,
		WriteTimeout:  *writeTO,
		Replicas:      *replicas,
	})
	if err != nil {
		fmt.Fprintf(stderr, "hvacd: %v\n", err)
		return 1
	}
	if *peers != "" {
		set := strings.Split(*peers, ",")
		if *self < 0 || *self >= len(set) {
			fmt.Fprintf(stderr, "hvacd: -self %d outside -peers (%d entries)\n", *self, len(set))
			srv.Close()
			return 2
		}
		srv.SetPeers(set, *self)
		fmt.Fprintf(stdout, "hvacd: replica warming across %d peers (self=%d, replicas=%d)\n", len(set), *self, *replicas)
	}
	moverDesc := fmt.Sprintf("%d", *movers)
	if *movers <= 0 {
		moverDesc = "default"
	}
	fmt.Fprintf(stdout, "hvacd: serving %s on %s (cache %s, %s movers, %s eviction, %d cache descriptors from RLIMIT_NOFILE)\n",
		*pfsDir, srv.Addr(), *cacheDir, moverDesc, *evict, cachestore.DescriptorBudget())

	// The stats ticker runs on run's own goroutine, so nothing outlives
	// the shutdown; with -stats 0 its channel is nil and never fires.
	var tick <-chan time.Time
	if *stats > 0 {
		t := time.NewTicker(*stats)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			fmt.Fprintf(stdout, "hvacd: %s\n", metrics.Line(srv.Stats()))
		case <-ctx.Done():
			fmt.Fprintln(stdout, "hvacd: shutting down, purging cache (job-coupled life cycle)")
			srv.Close()
			return 0
		}
	}
}
