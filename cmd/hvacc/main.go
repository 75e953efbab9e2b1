// Command hvacc is the real-mode HVAC client CLI: it reads dataset files
// through a running hvacd deployment the way a training job's loader
// would, and reports throughput and client-side counters. It doubles as
// the quickest way to eyeball the effect of the client tunables, such as
// the per-server connection pool size.
//
// Usage:
//
//	hvacc -servers host1:7070,host2:7070 -dataset /gpfs/dataset read /gpfs/dataset/*.rec
//	hvacc -servers host1:7070 -dataset /gpfs/dataset -epochs 3 -workers 8 read /gpfs/dataset/*.rec
//	hvacc -servers host1:7070 -dataset /gpfs/dataset -batch-size 256 batch /gpfs/dataset/*.rec
//	hvacc -servers host1:7070 -dataset /gpfs/dataset cat /gpfs/dataset/f0001.rec > local.rec
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hvac"
	"hvac/internal/slab"
)

func usage() {
	fmt.Fprintln(os.Stderr, `hvacc: commands
  read <path>...   read every file through HVAC and report throughput
  batch <path>...  read the files in scatter-gather batches (one RPC per server per batch)
  cat <path>       stream one file to stdout (sequential multi-chunk reads)`)
	flag.PrintDefaults()
}

func main() {
	var (
		servers   = flag.String("servers", "", "comma-separated hvacd addresses (required)")
		dataset   = flag.String("dataset", "", "dataset dir whose reads are redirected (required)")
		poolSize  = flag.Int("pool-size", 0, "idle TCP connections kept per server link; size to twice the loader worker count (0 = transport default, negative = no pooling)")
		replicas  = flag.Int("replicas", 1, "replica homes per file; >1 arms live failover across the replica ladder (must match the servers' -replicas)")
		hedge     = flag.Duration("hedge-after", 0, "fire the same read at the next replica when the current one has not answered within this duration (0 = off; needs -replicas > 1)")
		epochs    = flag.Int("epochs", 1, "number of passes over the file list (epoch 2+ should run at cache speed)")
		workers   = flag.Int("workers", 4, "concurrent reader goroutines for read")
		batchSize = flag.Int("batch-size", 256, "files per scatter-gather batch for batch")
		callTO    = flag.Duration("call-timeout", 5*time.Second, "per-RPC deadline (0 = transport default, negative = disabled)")
		retries   = flag.Int("retries", 0, "per-RPC attempt budget, first try included (0 = transport default)")
		planHzn   = flag.Int("plan-horizon", 0, "clairvoyant planning for read: shuffle each epoch with an access oracle, install the per-server plan, keep this many entries prefetched ahead of the read frontier (0 = off)")
		planSeed  = flag.Uint64("plan-seed", 0, "seed for the epoch access oracle used by -plan-horizon")
	)
	flag.Usage = usage
	flag.Parse()
	if *servers == "" || *dataset == "" || flag.NArg() < 2 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	paths := flag.Args()[1:]

	cli, err := hvac.NewClient(hvac.ClientConfig{
		Servers:       strings.Split(*servers, ","),
		DatasetDir:    *dataset,
		Replicas:      *replicas,
		HedgeAfter:    *hedge,
		CallTimeout:   *callTO,
		RetryAttempts: *retries,
		PoolSize:      *poolSize,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hvacc: %v\n", err)
		os.Exit(1)
	}
	defer cli.Close()

	switch cmd {
	case "read":
		var bytes, fails atomic.Int64
		start := time.Now()
		for e := 0; e < *epochs; e++ {
			epochStart := time.Now()
			order := paths
			if *planHzn > 0 {
				// Clairvoyant epoch: shuffle deterministically, tell every
				// server what it will serve and in what order, then read in
				// exactly that order so the plan pump stays ahead of us.
				oracle := hvac.NewAccessOracle(*planSeed, e, len(paths))
				order = hvac.PlanOrder(oracle, func(i int) string { return paths[i] })
				if n, err := cli.InstallPlan(int64(e), order, *planHzn); err != nil {
					fmt.Fprintf(os.Stderr, "hvacc: plan epoch %d: %d entries installed, %v\n", e, n, err)
				}
			}
			var wg sync.WaitGroup
			next := make(chan string)
			for w := 0; w < *workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for p := range next {
						data, err := cli.ReadAll(p)
						if err != nil {
							fmt.Fprintf(os.Stderr, "hvacc: read %s: %v\n", p, err)
							fails.Add(1)
							continue
						}
						bytes.Add(int64(len(data)))
						// Done with the bytes: the next ReadAll refills this
						// buffer, as it does under the training loader.
						slab.Put(data)
					}
				}()
			}
			for _, p := range order {
				next <- p
			}
			close(next)
			wg.Wait()
			fmt.Printf("epoch %d: %d files in %v\n", e+1, len(paths), time.Since(epochStart).Round(time.Millisecond))
		}
		elapsed := time.Since(start)
		mb := float64(bytes.Load()) / (1 << 20)
		fmt.Printf("total: %.1f MiB in %v (%.1f MiB/s)\n", mb, elapsed.Round(time.Millisecond), mb/elapsed.Seconds())
		printStats(cli)
		if fails.Load() > 0 {
			os.Exit(1)
		}

	case "batch":
		if *batchSize <= 0 {
			fmt.Fprintln(os.Stderr, "hvacc: -batch-size must be positive")
			os.Exit(2)
		}
		var bytes int64
		fails := 0
		start := time.Now()
		for e := 0; e < *epochs; e++ {
			epochStart := time.Now()
			for off := 0; off < len(paths); off += *batchSize {
				end := off + *batchSize
				if end > len(paths) {
					end = len(paths)
				}
				chunk := paths[off:end]
				out, err := cli.ReadBatch(chunk)
				if err != nil {
					fmt.Fprintf(os.Stderr, "hvacc: batch [%d:%d]: %v\n", off, end, err)
					fails++
					continue
				}
				for _, data := range out {
					bytes += int64(len(data))
				}
			}
			fmt.Printf("epoch %d: %d files in %v\n", e+1, len(paths), time.Since(epochStart).Round(time.Millisecond))
		}
		elapsed := time.Since(start)
		mb := float64(bytes) / (1 << 20)
		fmt.Printf("total: %.1f MiB in %v (%.1f MiB/s)\n", mb, elapsed.Round(time.Millisecond), mb/elapsed.Seconds())
		printStats(cli)
		if fails > 0 {
			os.Exit(1)
		}

	case "cat":
		if len(paths) != 1 {
			usage()
			os.Exit(2)
		}
		f, err := cli.Open(paths[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "hvacc: %v\n", err)
			os.Exit(1)
		}
		// Each Read is one ReadAt, and only a read over the client's 512 KiB
		// chunk is pipelined: copy through a buffer of eight. The wrapper
		// hides *os.File's ReaderFrom, which would discard the buffer and
		// read 32 KiB — one synchronous RPC — at a time.
		_, err = io.CopyBuffer(struct{ io.Writer }{os.Stdout}, f, make([]byte, 4<<20))
		cerr := f.Close()
		if err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hvacc: %v\n", err)
			os.Exit(1)
		}
		printStats(cli)

	default:
		fmt.Fprintf(os.Stderr, "hvacc: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

func printStats(cli *hvac.Client) {
	st := cli.Stats()
	fmt.Fprintf(os.Stderr,
		"client: redirected=%d passthrough=%d fallbacks=%d degrades=%d failovers=%d hedges=%d hedge-wins=%d retries=%d batch=%d batch-fallbacks=%d bytes=%d\n",
		st.Redirected, st.Passthrough, st.Fallbacks, st.Degrades, st.Failovers, st.Hedges, st.HedgeWins, st.Retries, st.BatchReads, st.BatchFallbacks, st.BytesRead)
}
