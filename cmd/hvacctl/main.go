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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hvac"
	"hvac/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind its arguments and output streams, so a
// test can drive it in process; it returns the exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hvacctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		servers  = fs.String("servers", "", "comma-separated hvacd addresses (required)")
		dataset  = fs.String("dataset", "", "dataset dir for prefetch/home (default: inferred from first path)")
		callTO   = fs.Duration("call-timeout", 5*time.Second, "per-RPC deadline; a hung server fails the call instead of hanging hvacctl (0 = transport default, negative = disabled)")
		retries  = fs.Int("retries", 0, "per-RPC attempt budget, first try included (0 = transport default)")
		poolSize = fs.Int("pool-size", 0, "idle TCP connections kept per server link (0 = transport default, negative = no pooling)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, `hvacctl: commands
  ping                 probe every server
  stat <path>          report a file's size via its home server
  home <path>...       print each path's home server
  prefetch <path>...   pre-populate the caches with the given files`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *servers == "" || fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	addrs := strings.Split(*servers, ",")
	cmd := fs.Arg(0)
	args := fs.Args()[1:]
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
				fmt.Fprintf(stdout, "%-24s DOWN (%v)\n", addr, err)
				bad++
			} else {
				fmt.Fprintf(stdout, "%-24s ok\n", addr)
			}
		}
		if bad > 0 {
			return 1
		}

	case "stat", "home", "prefetch":
		if len(args) == 0 {
			fs.Usage()
			return 2
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
			fmt.Fprintf(stderr, "hvacctl: %v\n", err)
			return 1
		}
		defer cli.Close()
		switch cmd {
		case "home":
			for _, p := range args {
				fmt.Fprintf(stdout, "%s -> server %d (%s)\n", p, cli.Home(p), addrs[cli.Home(p)])
			}
		case "stat":
			for _, p := range args {
				// The server serves absolute paths under its dataset dir.
				abs, err := filepath.Abs(p)
				if err != nil {
					fmt.Fprintf(stdout, "%s: ERROR %v\n", p, err)
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
					fmt.Fprintf(stdout, "%s: ERROR %v\n", p, err)
					continue
				}
				fmt.Fprintf(stdout, "%s: %d bytes\n", p, resp.Size)
				resp.Release()
			}
		case "prefetch":
			accepted := cli.Prefetch(args)
			fmt.Fprintf(stdout, "prefetch accepted for %d of %d files\n", accepted, len(args))
			if accepted < len(args) {
				return 1
			}
		}

	default:
		fmt.Fprintf(stderr, "hvacctl: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
	return 0
}
