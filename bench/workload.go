package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"hvac"
	"hvac/internal/transport"
	"hvac/loader"
)

// workload is one fixed epoch shape. Every workload runs the same stack:
// one loader with Workers = clients -> one hvac.Client -> loopback TCP ->
// numServers in-process servers with hvacd's defaults -> cachestore -> a
// PFS directory, closed loop.
type workload struct {
	name, why string
	files     int
	fileSize  int
	batch     int
	batched   bool    // fetch through Client.ReadBatch, not per-file ReadAll
	cacheFrac float64 // total CacheCapacity as a share of the dataset; 0 = hvacd's default, everything fits
}

const numServers = 2

// hvacdCapacity is hvacd's default -capacity.
const hvacdCapacity = 1600e9

var workloads = []workload{
	{
		name:  "warm_small",
		why:   "32 KiB files read as open+read+close from a full cache: three RPCs move one small payload, so client framing, round trips and server dispatch are the cost and payload movement is not",
		files: 8192, fileSize: 32 << 10, batch: 32,
	},
	{
		name:  "warm_batch",
		why:   "the same files through ReadBatch, one RPC per server per batch: bypasses per-file RPCs, so batch encode, server-side pread+copy and client copy-out are the cost",
		files: 8192, fileSize: 32 << 10, batch: 32, batched: true,
	},
	{
		name:  "warm_large",
		why:   "8 MiB files from a full cache: RPC overhead is amortised over megabytes, so sendfile, frame receive, the client's buffer allocation and GC are the cost",
		files: 48, fileSize: 8 << 20, batch: 1,
	},
	{
		name:  "cold_churn",
		why:   "64 KiB files with cache capacity at half the dataset: every epoch mixes hits, demand fills served from the in-flight fill, and evictions, so the cache's write side runs beside its read side",
		files: 4096, fileSize: 64 << 10, batch: 32, cacheFrac: 0.5,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef declares one reported metric; BENCHMARK.json repeats these
// tables and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the median it may worsen by
}

// failed_frac, the sixth end-to-end number, travels as the result line's
// failed/attempted pair: it must read 0, and a gated metric may not.
//
// Every bound is the contract's widest: ten runs of one commit on the
// 2-core reference sandbox spread (quartile distance over median) by 3 to
// 13 % on these metrics even after scaling by the machine factor. The
// batch tails spread by up to 21 % (p90) and 75 % (p99) there, so they are
// per-layer metrics of the traced run; see README.md.
var endToEnd = []metricDef{
	{"samples_per_s", "1/s", "higher", 0.25},
	{"batch_p50_ms", "ms", "lower", 0.25},
	{"cpu_ns_per_byte", "ns/B", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "loader.batches", unit: "count", better: "higher"},
	{name: "loader.self_us_per_sample", unit: "us", better: "lower"},
	{name: "loader.batch_p90_ms", unit: "ms", better: "lower"},
	{name: "loader.batch_p99_ms", unit: "ms", better: "lower"},
	{name: "core.client.self_us_per_sample", unit: "us", better: "lower"},
	{name: "core.client.rpcs_per_sample", unit: "1/sample", better: "lower"},
	{name: "core.client.fallbacks", unit: "count", better: "lower"},
	{name: "core.client.degrades", unit: "count", better: "lower"},
	{name: "core.client.batch_fallbacks", unit: "count", better: "lower"},
	{name: "core.client.retries", unit: "count", better: "lower"},
	{name: "transport.call_us_p50.open", unit: "us", better: "lower"},
	{name: "transport.call_us_p50.read", unit: "us", better: "lower"},
	{name: "transport.call_us_p50.close", unit: "us", better: "lower"},
	{name: "transport.call_us_p50.readbatch", unit: "us", better: "lower"},
	{name: "transport.wire_us_per_sample", unit: "us", better: "lower"},
	{name: "transport.echo_rtt_us.0", unit: "us", better: "lower"},
	{name: "transport.echo_rtt_us.32k", unit: "us", better: "lower"},
	{name: "transport.echo_rtt_us.8m", unit: "us", better: "lower"},
	{name: "core.server.handler_us_per_sample", unit: "us", better: "lower"},
	{name: "core.server.hit_frac", unit: "frac", better: "higher"},
	{name: "core.server.fills", unit: "count", better: "lower"},
	{name: "core.server.evictions", unit: "count", better: "lower"},
	{name: "core.server.fill_copy_us_mean", unit: "us", better: "lower"},
	{name: "core.server.demand_rejects", unit: "count", better: "lower"},
	{name: "core.server.prefetch_drops", unit: "count", better: "lower"},
	{name: "core.server.queue_depth_max", unit: "count", better: "lower"},
	{name: "core.server.zc_sends_per_sample", unit: "1/sample", better: "higher"},
	{name: "core.server.zc_fallbacks", unit: "count", better: "lower"},
	{name: "cachestore.lease_read_us", unit: "us", better: "lower"},
	{name: "cachestore.fill_us", unit: "us", better: "lower"},
	{name: "cachestore.evict_fill_us", unit: "us", better: "lower"},
	{name: "cachestore.used_bytes", unit: "bytes", better: "lower"},
	{name: "cachestore.files", unit: "count", better: "higher"},
	{name: "pfs.opens_per_sample", unit: "1/sample", better: "lower"},
	{name: "pfs.bytes_per_payload_byte", unit: "ratio", better: "lower"},
	{name: "pfs.open_us_mean", unit: "us", better: "lower"},
	{name: "place.place_ns", unit: "ns", better: "lower"},
	{name: "place.imbalance", unit: "ratio", better: "lower"},
	{name: "baseline.direct_samples_per_s", unit: "1/s", better: "higher"},
	{name: "baseline.nvme_speed_frac", unit: "frac", better: "higher"},
	{name: "process.allocs_per_sample", unit: "1/sample", better: "lower"},
	{name: "process.alloc_bytes_per_payload_byte", unit: "ratio", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "process.cpu_sys_frac", unit: "frac", better: "lower"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup.epoch1_samples_per_s", unit: "1/s", better: "higher"},
	{name: "trace.wall_us_per_sample", unit: "us", better: "lower"},
	{name: "trace.residual_us_per_sample", unit: "us", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "machine.calib_factor", unit: "ratio", better: "lower"},
}

// stampLen is the index/length stamp at the head and at the tail of
// every sample file.
const stampLen = 16

// fillSample writes sample idx's content into buf: a pure function of
// (seed, idx, len(buf)), stamped with idx and the length at both ends.
func fillSample(buf []byte, seed uint64, idx int) {
	x := seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15
	for off := 0; off+8 <= len(buf); off += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(buf[off:], z^(z>>31))
	}
	for _, at := range []int{0, len(buf) - stampLen} {
		binary.LittleEndian.PutUint64(buf[at:], uint64(idx))
		binary.LittleEndian.PutUint64(buf[at+8:], uint64(len(buf)))
	}
}

// stampOK is the cheap per-sample check of the timed window: the
// delivered bytes have the right length and carry idx at both ends.
func stampOK(data []byte, idx, size int) bool {
	if len(data) != size || size < 2*stampLen {
		return false
	}
	for _, at := range []int{0, size - stampLen} {
		if binary.LittleEndian.Uint64(data[at:]) != uint64(idx) ||
			binary.LittleEndian.Uint64(data[at+8:]) != uint64(size) {
			return false
		}
	}
	return true
}

// numClients is the closed-loop load: half the cores, because the other
// half belongs to the in-process servers.
func numClients() int { return max(1, runtime.NumCPU()/2) }

// fixture is one running instance of a workload's stack.
type fixture struct {
	w       workload
	paths   []string
	index   map[string]int // path -> sample index
	servers []*hvac.Server
	cli     *hvac.Client
	ld      *loader.Loader
	tr      *tracer     // nil on untraced runs
	cal     *calibrator // nil on traced runs: per-layer numbers are as timed

	pfsOpens atomic.Int64

	// epoch1 is the cold first epoch's rate, measured during setup.
	epoch1 float64
}

// setup generates the dataset under dir, starts the servers, client and
// loader, reads the untimed cold first epoch and waits for the fills to
// land. With tr non-nil the client's links and sources are decorated.
func setup(w workload, dir string, seed uint64, tr *tracer) (*fixture, error) {
	fx := &fixture{w: w, tr: tr, index: make(map[string]int, w.files)}
	pfsDir := filepath.Join(dir, "pfs")
	if err := os.MkdirAll(pfsDir, 0o755); err != nil {
		return nil, err
	}
	buf := make([]byte, w.fileSize)
	for i := 0; i < w.files; i++ {
		p := filepath.Join(pfsDir, fmt.Sprintf("sample-%06d.rec", i))
		fillSample(buf, seed, i)
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			return nil, err
		}
		fx.paths = append(fx.paths, p)
		fx.index[p] = i
	}

	capacity := int64(hvacdCapacity)
	if w.cacheFrac > 0 {
		capacity = int64(w.cacheFrac * float64(w.files) * float64(w.fileSize) / numServers)
	}
	var addrs []string
	for i := 0; i < numServers; i++ {
		srv, err := hvac.StartServer(hvac.ServerConfig{
			ListenAddr:    "127.0.0.1:0",
			PFSDir:        pfsDir,
			CacheDir:      filepath.Join(dir, fmt.Sprintf("nvme%d", i)),
			CacheCapacity: capacity,
			Policy:        hvac.RandomEviction(0),
			ZeroCopy:      runtime.GOOS == "linux",
			Replicas:      1,
			OpenPFS:       fx.openPFS,
		})
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.servers = append(fx.servers, srv)
		addrs = append(addrs, srv.Addr())
	}

	ccfg := hvac.ClientConfig{Servers: addrs, DatasetDir: pfsDir}
	if tr != nil {
		ccfg.DialTransport = func(addr string) transport.Transport {
			return tracedLink{Transport: transport.Dial(addr), t: tr}
		}
	}
	cli, err := hvac.NewClient(ccfg)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.cli = cli

	lcfg := loader.Config{Paths: fx.paths, BatchSize: w.batch, Workers: numClients(), Seed: seed}
	src := loader.Source(cli.ReadAll)
	if tr != nil {
		src = tr.source(cli.ReadAll)
	}
	if w.batched {
		lcfg.BatchSource = cli.ReadBatch
		if tr != nil {
			lcfg.BatchSource = tr.batchSource(cli.ReadBatch)
		}
	}
	if fx.ld, err = loader.New(src, lcfg); err != nil {
		fx.close()
		return nil, err
	}

	start := time.Now()
	if err := fx.ld.Epoch(0, func(loader.Batch) error { return nil }); err != nil {
		fx.close()
		return nil, fmt.Errorf("cold epoch: %w", err)
	}
	fx.epoch1 = float64(w.files) / time.Since(start).Seconds()
	for _, srv := range fx.servers {
		srv.WaitIdle()
	}
	return fx, nil
}

// openPFS is the counting ServerConfig.OpenPFS seam.
func (fx *fixture) openPFS(path string) (*os.File, error) {
	fx.pfsOpens.Add(1)
	if fx.tr == nil || !fx.tr.on.Load() {
		return os.Open(path)
	}
	start := fx.tr.now()
	f, err := os.Open(path)
	end := fx.tr.now()
	fx.tr.record(span{ID: fx.tr.newID(), Layer: "pfs", Name: "open", Start: start, End: end})
	return f, err
}

// close stops the client and the servers (which purge their caches).
func (fx *fixture) close() {
	if fx.cli != nil {
		fx.cli.Close()
	}
	for _, srv := range fx.servers {
		srv.Close()
	}
}

// verifyEpoch reads one more, untimed epoch and compares every delivered
// sample byte for byte with the PFS copy.
func (fx *fixture) verifyEpoch(epoch int) error {
	return fx.ld.Epoch(epoch, func(b loader.Batch) error {
		for i, p := range b.Paths {
			want, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(b.Data[i], want) {
				return fmt.Errorf("verify: %s: delivered %d bytes differ from the PFS copy (%d bytes)", p, len(b.Data[i]), len(want))
			}
		}
		return nil
	})
}
