// Command hvacctl is the operations tool for a running real-mode HVAC
// deployment: liveness probes, file stats, and cache pre-population
// against one or more hvacd servers.
//
// Usage:
//
//	hvacctl -servers host1:7070,host2:7070 ping
//	hvacctl -servers host1:7070,host2:7070 stat /gpfs/dataset/f0001.rec
//	hvacctl -servers host1:7070,host2:7070 -dataset /gpfs/dataset prefetch /gpfs/dataset/*.rec
//	hvacctl -servers host1:7070,host2:7070 home /gpfs/dataset/f0001.rec
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hvac"
	"hvac/internal/transport"
)

func usage() {
	fmt.Fprintln(os.Stderr, `hvacctl: commands
  ping                 probe every server
  stat <path>          report a file's size via its home server
  home <path>...       print each path's home server
  prefetch <path>...   pre-populate the caches with the given files`)
	flag.PrintDefaults()
}

func main() {
	var (
		servers  = flag.String("servers", "", "comma-separated hvacd addresses (required)")
		dataset  = flag.String("dataset", "", "dataset dir for prefetch/home (default: inferred from first path)")
		callTO   = flag.Duration("call-timeout", 5*time.Second, "per-RPC deadline; a hung server fails the call instead of hanging hvacctl (0 = transport default, negative = disabled)")
		retries  = flag.Int("retries", 0, "per-RPC attempt budget, first try included (0 = transport default)")
		poolSize = flag.Int("pool-size", 0, "idle TCP connections kept per server link (0 = transport default, negative = no pooling)")
	)
	flag.Usage = usage
	flag.Parse()
	if *servers == "" || flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	addrs := strings.Split(*servers, ",")
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	opts := transport.ClientOptions{
		CallTimeout: *callTO,
		Retry:       transport.RetryPolicy{MaxAttempts: *retries},
		PoolSize:    *poolSize,
	}

	switch cmd {
	case "ping":
		bad := 0
		for _, addr := range addrs {
			cli := transport.DialWith(addr, opts)
			err := cli.Ping()
			cli.Close()
			if err != nil {
				fmt.Printf("%-24s DOWN (%v)\n", addr, err)
				bad++
			} else {
				fmt.Printf("%-24s ok\n", addr)
			}
		}
		if bad > 0 {
			os.Exit(1)
		}

	case "stat", "home", "prefetch":
		if len(args) == 0 {
			usage()
			os.Exit(2)
		}
		dir := *dataset
		if dir == "" {
			// Infer the dataset dir: the directory of the first path.
			dir = args[0]
			if i := strings.LastIndexByte(dir, '/'); i > 0 {
				dir = dir[:i]
			}
		}
		cli, err := hvac.NewClient(hvac.ClientConfig{
			Servers:       addrs,
			DatasetDir:    dir,
			CallTimeout:   *callTO,
			RetryAttempts: *retries,
			PoolSize:      *poolSize,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hvacctl: %v\n", err)
			os.Exit(1)
		}
		defer cli.Close()
		switch cmd {
		case "home":
			for _, p := range args {
				fmt.Printf("%s -> server %d (%s)\n", p, cli.Home(p), addrs[cli.Home(p)])
			}
		case "stat":
			for _, p := range args {
				// The server serves absolute paths under its dataset dir.
				abs, err := filepath.Abs(p)
				if err != nil {
					fmt.Printf("%s: ERROR %v\n", p, err)
					continue
				}
				c := transport.DialWith(addrs[cli.Home(abs)], opts)
				resp, err := c.Call(&transport.Request{Op: transport.OpStat, Path: abs})
				c.Close()
				if err != nil || !resp.OK() {
					if err == nil {
						err = resp.Error()
						resp.Release()
					}
					fmt.Printf("%s: ERROR %v\n", p, err)
					continue
				}
				fmt.Printf("%s: %d bytes\n", p, resp.Size)
				resp.Release()
			}
		case "prefetch":
			accepted := cli.Prefetch(args)
			fmt.Printf("prefetch accepted for %d of %d files\n", accepted, len(args))
			if accepted < len(args) {
				os.Exit(1)
			}
		}

	default:
		fmt.Fprintf(os.Stderr, "hvacctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
}
