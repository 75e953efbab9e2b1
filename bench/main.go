// Command bench is the repository's one benchmark: it drives whole
// training epochs through the real stack — loader -> core.Client ->
// transport over loopback TCP -> core.Server -> cachestore -> a PFS
// directory — and reports the end-to-end metrics of BENCHMARK.json, or,
// with -trace, the per-layer metrics and the layer table of a traced
// run. See README.md beside this file.
//
//	go run ./bench -workload all
//	go run ./bench -workload warm_small -trace
//	go run ./bench -repeat 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sync"
	"syscall"
)

// runDir is the run directory in use, so that a signal can remove it;
// runs follow one another, so there is at most one.
var runDir struct {
	sync.Mutex
	path string
}

// removeRunDir removes the run directory in use, if there is one.
func removeRunDir() {
	runDir.Lock()
	defer runDir.Unlock()
	if runDir.path != "" {
		_ = os.RemoveAll(runDir.path) // best-effort: nothing else would report a leftover either
		runDir.path = ""
	}
}

// normalizeArgs lets -trace take the driver's separate 0|1 value while
// staying a plain switch on the command line: "-trace 1" becomes
// "-trace=1", which the flag package reads as a boolean.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && slices.Contains([]string{"0", "1", "true", "false"}, args[i+1]) {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// defaultWorkdir is tmpfs when there is a writable one with room for the
// largest dataset and its cached copy: the sandbox's virtual disk is not
// the paper's NVMe and only adds writeback noise.
func defaultWorkdir() string {
	const need = 2 << 30
	if fs, free := fsInfo("/dev/shm"); fs == "tmpfs" && free >= need {
		if probe, err := os.MkdirTemp("/dev/shm", "hvac-bench-probe-"); err == nil {
			_ = os.Remove(probe) // an empty directory this function just made
			return "/dev/shm"
		}
	}
	return os.TempDir()
}

// jsonLine is the last line of a run's output, in the driver's format.
func jsonLine(r *result) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]metric)}
	for _, d := range r.defs {
		line.Metrics[d.name] = metric{r.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(line) // fails on NaN or Inf: a metric divided by a zero count
	return string(b), err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Uint64("seed", 1, "seeds the file contents and the loader shuffle")
		seconds = fs.Float64("seconds", 20, "timed window per workload, in seconds")
		workdir = fs.String("workdir", "", "directory to build the dataset and caches under (default: /dev/shm when it is a tmpfs with room, else the temp dir)")
		trace   = fs.Bool("trace", false, "traced run: per-layer metrics, layer table, spans in bench/out/trace-<workload>.jsonl")
		repeat  = fs.Int("repeat", 0, "run the untraced set this many times (an even number) and compare the halves against the bounds")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments or non-positive -seconds")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *workdir == "" {
		*workdir = defaultWorkdir()
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, limit: maxStretch * *seconds, workdir: *workdir, outDir: "bench/out", out: out}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		removeRunDir()
		os.Exit(130)
	}()

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fsType, _ := fsInfo(cfg.workdir)
	fmt.Fprintf(out, "env: nproc=%d clients=%d servers=%d %s %s/%s kernel=%s workdir=%s (%s) seed=%d seconds=%g\n",
		runtime.NumCPU(), numClients(), numServers, runtime.Version(), runtime.GOOS, runtime.GOARCH,
		kernelRelease(), cfg.workdir, fsType, cfg.seed, cfg.seconds)

	if *repeat > 0 {
		return runRepeat(cfg, selected, *repeat)
	}
	code := 0
	for _, w := range selected {
		runOne := runEndToEnd
		if *trace {
			runOne = runTraced
		}
		r, err := runOne(cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !r.correct {
			fmt.Fprintf(os.Stderr, "bench: %s: incorrect: %d of %d samples failed or the verification epoch differed\n", w.name, r.failed, r.attempted)
			code = 1
		}
		line, err := jsonLine(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(out, line)
	}
	return code
}

// runRepeat runs the selected workloads n times over, set after set, and
// compares the first half of the sets with the second half the way a
// driver compares two series of one commit: per workload and end-to-end
// metric it prints the two medians and their relative difference beside
// the metric's bound, and fails when a difference exceeds its bound. Two
// sets compare single runs; on a box that drifts, ask for more.
func runRepeat(cfg runConfig, selected []workload, n int) int {
	if n < 2 || n%2 != 0 {
		fmt.Fprintln(os.Stderr, "bench: -repeat takes an even number of sets")
		return 2
	}
	values := make(map[string][]float64) // "workload metric" -> one value per set
	for set := 0; set < n; set++ {
		setCfg := cfg
		setCfg.out = io.Discard
		for _, w := range selected {
			r, err := runEndToEnd(setCfg, w)
			if err != nil || !r.correct {
				fmt.Fprintf(os.Stderr, "bench: repeat set %d: %s: failed: %v\n", set+1, w.name, err)
				return 1
			}
			for _, d := range endToEnd {
				key := w.name + " " + d.name
				values[key] = append(values[key], r.metrics[d.name])
			}
		}
	}
	fmt.Fprintf(cfg.out, "%d sets; medians of sets 1-%d against sets %d-%d\n", n, n/2, n/2+1, n)
	fmt.Fprintf(cfg.out, "%-12s %-16s %-6s %12s %12s %9s %6s\n", "workload", "metric", "unit", "first", "second", "rel.diff", "bound")
	code := 0
	for _, w := range selected {
		for _, d := range endToEnd {
			vs := values[w.name+" "+d.name]
			first, second := median(vs[:n/2]), median(vs[n/2:])
			diff := (second - first) / first
			verdict := ""
			if math.Abs(diff) > d.bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(cfg.out, "%-12s %-16s %-6s %12.4f %12.4f %+9.4f %6.2f%s\n", w.name, d.name, d.unit, first, second, diff, d.bound, verdict)
		}
	}
	return code
}
