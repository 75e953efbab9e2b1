// Command hvacc is the real-mode HVAC client CLI. It reads dataset files
// through a running hvacd deployment the way a training job's loader
// would and reports throughput and client-side counters, and it carries
// the operations commands: liveness probes, file stats, homes and cache
// pre-population.
//
// Usage:
//
//	hvacc -servers host1:7070,host2:7070 ping
//	hvacc -servers host1:7070,host2:7070 -dataset /gpfs/dataset stat /gpfs/dataset/f0001.rec
//	hvacc -servers host1:7070,host2:7070 -dataset /gpfs/dataset home /gpfs/dataset/f0001.rec
//	hvacc -servers host1:7070,host2:7070 -dataset /gpfs/dataset prefetch /gpfs/dataset/*.rec
//	hvacc -servers host1:7070 -dataset /gpfs/dataset -epochs 3 -workers 8 read /gpfs/dataset/*.rec
//	hvacc -servers host1:7070 -dataset /gpfs/dataset -batch-size 256 batch /gpfs/dataset/*.rec
//	hvacc -servers host1:7070 -dataset /gpfs/dataset cat /gpfs/dataset/f0001.rec > local.rec
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hvac"
	"hvac/internal/metrics"
	"hvac/internal/slab"
	"hvac/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind its arguments and output streams, so a
// test can drive it in process; it returns the exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hvacc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		servers   = fs.String("servers", "", "comma-separated hvacd addresses (required)")
		dataset   = fs.String("dataset", "", "dataset dir whose reads are redirected (required by every command but ping)")
		replicas  = fs.Int("replicas", 1, "replica homes per file; >1 arms live failover across the replica ladder (must match the servers' -replicas)")
		epochs    = fs.Int("epochs", 1, "number of passes over the file list for read and batch (epoch 2+ should run at cache speed)")
		workers   = fs.Int("workers", 4, "concurrent reader goroutines for read")
		batchSize = fs.Int("batch-size", 256, "files per scatter-gather batch for batch")
		callTO    = fs.Duration("call-timeout", 5*time.Second, "per-RPC deadline; a hung server fails the call instead of hanging hvacc (0 = transport default, negative = disabled)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, `hvacc: commands
  ping               probe every server (needs only -servers)
  stat <path>...     report each file's size via its home server
  home <path>...     print each path's home server
  prefetch <path>... pre-populate the caches with the given files
  read <path>...     read every file through HVAC and report throughput
  batch <path>...    read the files in scatter-gather batches (one RPC per server per batch)
  cat <path>         stream one file to stdout (sequential multi-chunk reads)`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cmd, paths := fs.Arg(0), fs.Args()[min(1, fs.NArg()):]
	usage := func(msg string) int {
		if msg != "" {
			fmt.Fprintf(stderr, "hvacc: %s\n", msg)
		}
		fs.Usage()
		return 2
	}
	switch {
	case *servers == "" || cmd == "":
		return usage("")
	case cmd != "ping" && (*dataset == "" || len(paths) == 0):
		return usage("")
	case cmd == "cat" && len(paths) != 1:
		return usage("")
	case cmd == "read" && *workers < 1:
		return usage("-workers must be positive")
	case cmd == "batch" && *batchSize < 1:
		return usage("-batch-size must be positive")
	}
	addrs := strings.Split(*servers, ",")
	opts := transport.ClientOptions{CallTimeout: *callTO}
	if cmd == "ping" {
		bad := 0
		for _, addr := range addrs {
			c := transport.DialWith(addr, opts)
			err := c.Ping()
			c.Close()
			if err != nil {
				fmt.Fprintf(stdout, "%-24s DOWN (%v)\n", addr, err)
				bad++
			} else {
				fmt.Fprintf(stdout, "%-24s ok\n", addr)
			}
		}
		return min(bad, 1)
	}

	cli, err := hvac.NewClient(hvac.ClientConfig{
		Servers:     addrs,
		DatasetDir:  *dataset,
		Replicas:    *replicas,
		CallTimeout: *callTO,
	})
	if err != nil {
		fmt.Fprintf(stderr, "hvacc: %v\n", err)
		return 1
	}
	// Every return below closes the client: the queued close of the last
	// file read leaves only with Close, so skipping it strands a handle in
	// the server's table.
	defer cli.Close()

	switch cmd {
	case "home":
		for _, p := range paths {
			fmt.Fprintf(stdout, "%s -> server %d (%s)\n", p, cli.Home(p), addrs[cli.Home(p)])
		}

	case "stat":
		for _, p := range paths {
			size, err := stat(addrs, opts, cli, p)
			if err != nil {
				fmt.Fprintf(stdout, "%s: ERROR %v\n", p, err)
				continue
			}
			fmt.Fprintf(stdout, "%s: %d bytes\n", p, size)
		}

	case "prefetch":
		accepted := cli.Prefetch(paths)
		fmt.Fprintf(stdout, "prefetch accepted for %d of %d files\n", accepted, len(paths))
		if accepted < len(paths) {
			return 1
		}

	case "read", "batch":
		fails := 0
		var bytes atomic.Int64
		start := time.Now()
		for e := 0; e < *epochs; e++ {
			epochStart := time.Now()
			if cmd == "read" {
				fails += readEpoch(cli, paths, *workers, &bytes, stderr)
			} else {
				fails += batchEpoch(cli, paths, *batchSize, &bytes, stderr)
			}
			fmt.Fprintf(stdout, "epoch %d: %d files in %v\n", e+1, len(paths), time.Since(epochStart).Round(time.Millisecond))
		}
		elapsed := time.Since(start)
		mb := float64(bytes.Load()) / (1 << 20)
		fmt.Fprintf(stdout, "total: %.1f MiB in %v (%.1f MiB/s)\n", mb, elapsed.Round(time.Millisecond), mb/elapsed.Seconds())
		printStats(stderr, cli)
		return min(fails, 1)

	case "cat":
		f, err := cli.Open(paths[0])
		if err != nil {
			fmt.Fprintf(stderr, "hvacc: %v\n", err)
			return 1
		}
		// Each Read is one ReadAt, and only a read over the client's 512 KiB
		// chunk is pipelined: copy through a buffer of eight. The wrapper
		// hides a ReaderFrom (*os.File's), which would discard the buffer
		// and read 32 KiB — one synchronous RPC — at a time.
		_, err = io.CopyBuffer(struct{ io.Writer }{stdout}, f, make([]byte, 4<<20))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "hvacc: %v\n", err)
			return 1
		}
		printStats(stderr, cli)

	default:
		return usage(fmt.Sprintf("unknown command %q", cmd))
	}
	return 0
}

func printStats(stderr io.Writer, cli *hvac.Client) {
	fmt.Fprintf(stderr, "client: %s\n", metrics.Line(cli.Stats()))
}

// stat asks p's home server for its size with a raw OpStat: an open would
// schedule a fill, and stat must not warm the cache.
func stat(addrs []string, opts transport.ClientOptions, cli *hvac.Client, p string) (int64, error) {
	// The server serves absolute paths under its dataset dir.
	abs, err := filepath.Abs(p)
	if err != nil {
		return 0, err
	}
	c := transport.DialWith(addrs[cli.Home(abs)], opts)
	defer c.Close()
	resp, err := c.Call(&transport.Request{Op: transport.OpStat, Path: abs})
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	if !resp.OK() {
		return 0, resp.Error()
	}
	return resp.Size, nil
}

// readEpoch reads every path once on the given number of workers and
// returns how many reads failed.
func readEpoch(cli *hvac.Client, paths []string, workers int, bytes *atomic.Int64, stderr io.Writer) int {
	var fails atomic.Int64
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				data, err := cli.ReadAll(p)
				if err != nil {
					fmt.Fprintf(stderr, "hvacc: read %s: %v\n", p, err)
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
	for _, p := range paths {
		next <- p
	}
	close(next)
	wg.Wait()
	return int(fails.Load())
}

// batchEpoch reads every path once in batches of size and returns how many
// batches failed.
func batchEpoch(cli *hvac.Client, paths []string, size int, bytes *atomic.Int64, stderr io.Writer) int {
	fails := 0
	for off := 0; off < len(paths); off += size {
		end := min(off+size, len(paths))
		out, err := cli.ReadBatch(paths[off:end])
		if err != nil {
			fmt.Fprintf(stderr, "hvacc: batch [%d:%d]: %v\n", off, end, err)
			fails++
			continue
		}
		for _, data := range out {
			bytes.Add(int64(len(data)))
			slab.Put(data)
		}
	}
	return fails
}
