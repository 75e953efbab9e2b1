package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"hvac/loader"
)

// setupReps is how many times an untraced run sets the stack up; setup_s
// is the median, so one slow dataset write does not decide it.
const setupReps = 3

// maxStretch caps how far a window may be lengthened to satisfy the
// tailBeyond rule, as a multiple of the run's -seconds.
const maxStretch = 4

// window is what one timed stretch of whole epochs measured.
type window struct {
	epochRates []float64 // samples per second, one per epoch
	epochCPU   []float64 // user+sys CPU nanoseconds per payload byte, one per epoch
	epochFirst []int     // index in batchMS of each epoch's first batch
	factors    []float64 // machine factor of each epoch; empty without a calibrator
	batchMS    []float64 // time to assemble each batch
	samples    int64
	badStamps  int64
	bytes      int64
	wall       time.Duration
	user, sys  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	counts     counters // what the client, the servers and the PFS seam counted meanwhile
	queueMax   int64
}

// failed counts samples the cache tier did not deliver intact: stamp
// mismatches plus everything the client served from the PFS instead.
func (w *window) failed() int64 {
	return w.badStamps + w.counts[cFallbacks] + w.counts[cDegrades] + w.counts[cBatchFallbacks]
}

// counters is the client, server and seam state a window takes the
// difference of; server values are summed over the servers.
type counters [nCounters]int64

const (
	cFallbacks = iota
	cDegrades
	cBatchFallbacks
	cRetries
	cHits
	cReadThroughs
	cFills
	cEvictions
	cDemandRejects
	cPrefetchDrops
	cZCSends
	cZCFallbacks
	cHandlerNS // open+read handler busy time
	cCopyNS    // mover fill time
	cCopies
	cPFSOpens
	nCounters
)

func (fx *fixture) counters() (c counters) {
	cli := fx.cli.Stats()
	c[cFallbacks], c[cDegrades], c[cBatchFallbacks], c[cRetries] = cli.Fallbacks, cli.Degrades, cli.BatchFallbacks, cli.Retries
	for _, srv := range fx.servers {
		s := srv.Stats()
		c[cHits] += s.Hits
		c[cReadThroughs] += s.ReadThroughs
		c[cFills] += s.Misses
		c[cEvictions] += s.Evictions
		c[cDemandRejects] += s.DemandRejects
		c[cPrefetchDrops] += s.PrefetchDrops
		c[cZCSends] += s.ZeroCopySends
		c[cZCFallbacks] += s.ZeroCopyFallbacks
		// The histograms expose mean and count; their product is the sum
		// to within a nanosecond per observation.
		c[cHandlerNS] += int64(srv.OpenLatency().Mean())*srv.OpenLatency().Count() +
			int64(srv.ReadLatency().Mean())*srv.ReadLatency().Count()
		c[cCopyNS] += int64(srv.CopyLatency().Mean()) * srv.CopyLatency().Count()
		c[cCopies] += srv.CopyLatency().Count()
	}
	c[cPFSOpens] = fx.pfsOpens.Load()
	return c
}

// measure runs whole epochs, starting at epoch, until seconds have
// passed. With tail > 0 it keeps going until that quantile of the batch
// times has tailBeyond batches beyond it, and fails after limit seconds
// rather than report a thinner percentile. It returns the next unused
// epoch number.
func (fx *fixture) measure(seconds float64, epoch int, tail, limit float64) (*window, int, error) {
	w := &window{}
	tr := fx.tr
	tracing := tr != nil && tr.on.Load()

	// Every window starts from a collected heap, whatever set-up left.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	counts0 := fx.counters()
	user0, sys0, _ := cpuTimes()
	begin := time.Now()

	// Batch times and spans share one clock, so a fetch span encloses
	// the source spans recorded under it.
	clock := func() int64 { return time.Since(begin).Nanoseconds() }
	if tracing {
		clock = tr.now
	}
	var batchStart, batchSeq int64
	openBatch := func() {
		if tracing {
			batchSeq++
			tr.batch.Store(&spanRef{id: tr.newID(), request: batchSeq})
		}
		batchStart = clock()
	}
	onBatch := func(b loader.Batch) error {
		now := clock()
		w.batchMS = append(w.batchMS, float64(now-batchStart)/1e6)
		if tracing {
			ref := tr.batch.Load()
			tr.record(span{ID: ref.id, Request: ref.request, Layer: "loader", Name: "fetch", Start: batchStart, End: now})
			var depth int64
			for _, srv := range fx.servers {
				depth += srv.Stats().QueueDepth
			}
			w.queueMax = max(w.queueMax, depth)
		}
		for i, data := range b.Data {
			if !stampOK(data, fx.index[b.Paths[i]], fx.w.fileSize) {
				w.badStamps++
			}
			w.bytes += int64(len(data))
		}
		w.samples += int64(len(b.Data))
		openBatch()
		return nil
	}

	// The machine factor of an epoch is the mean of the calibrations on
	// either side of it; their own time is in the window but in no epoch.
	var before float64
	if fx.cal != nil {
		var err error
		if before, err = fx.cal.factor(); err != nil {
			return nil, epoch, err
		}
	}
	for {
		userE, sysE, _ := cpuTimes()
		epochStart := time.Now()
		samples, bytes := w.samples, w.bytes
		w.epochFirst = append(w.epochFirst, len(w.batchMS))
		openBatch()
		if err := fx.ld.Epoch(epoch, onBatch); err != nil {
			return nil, epoch, err
		}
		epoch++
		w.epochRates = append(w.epochRates, float64(w.samples-samples)/time.Since(epochStart).Seconds())
		user, sys, _ := cpuTimes()
		w.epochCPU = append(w.epochCPU, float64((user-userE+sys-sysE).Nanoseconds())/float64(w.bytes-bytes))
		if fx.cal != nil {
			after, err := fx.cal.factor()
			if err != nil {
				return nil, epoch, err
			}
			w.factors = append(w.factors, (before+after)/2)
			before = after
		}
		elapsed := time.Since(begin).Seconds()
		if elapsed < seconds {
			continue
		}
		if tail == 0 || tailReady(len(w.batchMS), tail) {
			break
		}
		if elapsed > limit {
			return nil, epoch, fmt.Errorf("%s: %d batches in %.1fs leave fewer than %d beyond p%.0f; run with more -seconds",
				fx.w.name, len(w.batchMS), elapsed, tailBeyond, 100*tail)
		}
	}

	w.wall = time.Since(begin)
	user1, sys1, _ := cpuTimes()
	w.user, w.sys = user1-user0, sys1-sys0
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for i, c := range fx.counters() {
		w.counts[i] = c - counts0[i]
	}
	return w, epoch, nil
}

// result is one run's outcome; jsonLine renders the driver's contract.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	defs      []metricDef
}

// report prints the metrics by name and unit, in table order.
func (r *result) report(out io.Writer, notes map[string]string) {
	for _, d := range r.defs {
		fmt.Fprintf(out, "  %-38s %14.4f %-9s %s\n", d.name, r.metrics[d.name], d.unit, notes[d.name])
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(out, "  %-38s %14g %-9s %d of %d samples\n", "failed_frac", frac, "frac", r.failed, r.attempted)
}

// runConfig is what one run of one workload needs.
type runConfig struct {
	seed    uint64
	seconds float64
	limit   float64 // seconds after which a window stops stretching for its tail and fails
	workdir string  // root under which the run makes (and removes) its own directory
	outDir  string  // where traced runs write their span files
	out     io.Writer
}

// withWorkdir runs fn in a fresh directory under cfg.workdir and removes
// it afterwards, also when fn fails.
func withWorkdir(cfg runConfig, w workload, fn func(dir string) (*result, error)) (*result, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "hvac-bench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	runDir.Lock()
	runDir.path = dir
	runDir.Unlock()
	defer removeRunDir()
	return fn(dir)
}

// runEndToEnd is the untraced run: it reports every end-to-end metric,
// each scaled by the machine factor measured on either side of the epoch
// or set-up it timed (calib.go).
func runEndToEnd(cfg runConfig, w workload) (*result, error) {
	return withWorkdir(cfg, w, func(dir string) (*result, error) {
		cal, err := newCalibrator()
		if err != nil {
			return nil, err
		}
		defer cal.close()

		var fx *fixture
		var setups, setupsRaw []float64
		for rep := 0; rep < setupReps; rep++ {
			if fx != nil {
				fx.close()
			}
			before, err := cal.factor()
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if fx, err = setup(w, dir, cfg.seed, nil); err != nil {
				return nil, err
			}
			took := time.Since(start).Seconds()
			after, err := cal.factor()
			if err != nil {
				fx.close()
				return nil, err
			}
			setupsRaw = append(setupsRaw, took)
			setups = append(setups, took/((before+after)/2))
		}
		defer fx.close()
		fx.cal = cal

		win, epoch, err := fx.measure(cfg.seconds, 1, 0, 0)
		if err != nil {
			return nil, err
		}
		verr := fx.verifyEpoch(epoch)

		var rates, cpus, batches []float64
		for e, f := range win.factors {
			rates = append(rates, win.epochRates[e]*f)
			cpus = append(cpus, win.epochCPU[e]/f)
			last := len(win.batchMS)
			if e+1 < len(win.epochFirst) {
				last = win.epochFirst[e+1]
			}
			for _, ms := range win.batchMS[win.epochFirst[e]:last] {
				batches = append(batches, ms/f)
			}
		}
		slices.Sort(batches)
		slices.Sort(win.batchMS)
		p50, _ := percentile(batches, 0.50)
		rawP50, _ := percentile(win.batchMS, 0.50)
		rawP90, beyond := percentile(win.batchMS, 0.90)
		r := &result{
			defs:      endToEnd,
			correct:   verr == nil && win.failed() == 0,
			attempted: win.samples, failed: win.failed(),
			metrics: map[string]float64{
				"samples_per_s":   median(rates),
				"batch_p50_ms":    p50,
				"cpu_ns_per_byte": median(cpus),
				"setup_s":         median(setups),
			},
		}
		fmt.Fprintf(cfg.out, "\n== %s: %d x %d KiB, batch %d, window %.1fs, machine factor %.3f (%.3f to %.3f)\n", w.name, w.files, w.fileSize>>10, w.batch,
			win.wall.Seconds(), median(win.factors), slices.Min(win.factors), slices.Max(win.factors))
		r.report(cfg.out, map[string]string{
			"samples_per_s":   fmt.Sprintf("median of %d epochs; as timed %.1f, %.1f MB/s", len(rates), median(win.epochRates), median(win.epochRates)*float64(w.fileSize)/1e6),
			"batch_p50_ms":    fmt.Sprintf("n=%d batches; as timed %.4f", len(batches), rawP50),
			"cpu_ns_per_byte": fmt.Sprintf("median of %d epochs; as timed %.4f", len(cpus), median(win.epochCPU)),
			"setup_s":         fmt.Sprintf("median of %d set-ups; as timed %.4f", len(setups), median(setupsRaw)),
		})
		fmt.Fprintf(cfg.out, "  batch tail, as timed, not gated: p90 %.4f ms with %d batches beyond\n", rawP90, beyond)
		if verr != nil {
			fmt.Fprintf(cfg.out, "  verify: FAILED: %v\n", verr)
		} else {
			fmt.Fprintf(cfg.out, "  verify: one more epoch of %d files byte-identical to the PFS copy\n", w.files)
		}
		return r, nil
	})
}

// Shares of -seconds a traced run gives its three timed stretches.
const (
	refShare      = 0.3 // untraced, for process.* and trace.overhead_frac
	tracedShare   = 0.5
	baselineShare = 0.2 // the same loader straight off the workdir
)

// runTraced is the traced run: it reports every per-layer metric, prints
// the layer table and writes the span file.
func runTraced(cfg runConfig, w workload) (*result, error) {
	return withWorkdir(cfg, w, func(dir string) (*result, error) {
		tr := newTracer()
		fx, err := setup(w, dir, cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		defer fx.close()

		cal, err := newCalibrator()
		if err != nil {
			return nil, err
		}
		defer cal.close()
		factors := make([]float64, 3) // before, between and after the two stretches
		if factors[0], err = cal.factor(); err != nil {
			return nil, err
		}
		ref, epoch, err := fx.measure(refShare*cfg.seconds, 1, 0.99, cfg.limit)
		if err != nil {
			return nil, err
		}
		if factors[1], err = cal.factor(); err != nil {
			return nil, err
		}
		_, _, peakRSS := cpuTimes()
		tr.on.Store(true)
		win, epoch, err := fx.measure(tracedShare*cfg.seconds, epoch, 0, 0)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		if factors[2], err = cal.factor(); err != nil {
			return nil, err
		}
		spans := tr.take()
		verr := fx.verifyEpoch(epoch)
		direct, err := fx.directRate(baselineShare * cfg.seconds)
		if err != nil {
			return nil, err
		}

		n := float64(win.samples)
		c := win.counts
		perSample := func(ns int64) float64 { return float64(ns) / 1e3 / n }
		total, self := layerTimes(spans)
		// With several workers the source spans of a batch overlap; scale
		// them to the time the batch actually waited on them, so the rows
		// still add up to the batch. At clients = 1 the factor is 1.
		overlap := 1.0
		if total["core.client"] > 0 {
			overlap = float64(total["loader"]-self["loader"]) / float64(total["core.client"])
		}
		handler := float64(c[cHandlerNS]) * overlap
		wire := float64(total["transport"])*overlap - handler
		rows := []struct {
			name string
			us   float64
		}{
			{"loader self", perSample(self["loader"])},
			{"core.client self", perSample(int64(float64(self["core.client"]) * overlap))},
			{"transport wire", perSample(int64(wire))},
			{"core.server handler", perSample(int64(handler))},
		}
		wallUS := perSample(win.wall.Nanoseconds())
		residual := wallUS
		for _, row := range rows {
			residual -= row.us
		}

		calls := make(map[string][]float64)
		var rpcs, pfsSpans int64
		for _, s := range spans {
			switch s.Layer {
			case "transport":
				rpcs++
				calls[s.Name] = append(calls[s.Name], float64(s.dur())/1e3)
			case "pfs":
				pfsSpans++
			}
		}
		var usedBytes int64
		var cachedFiles int
		for _, srv := range fx.servers {
			usedBytes += srv.CachedBytes()
			cachedFiles += srv.CachedFiles()
		}
		refRate, tracedRate := median(ref.epochRates), median(win.epochRates)
		slices.Sort(ref.batchMS)
		p90, _ := percentile(ref.batchMS, 0.90)
		p99, _ := percentile(ref.batchMS, 0.99)
		probes, err := runProbes(dir, fx)
		if err != nil {
			return nil, err
		}

		m := map[string]float64{
			"loader.batches":                       float64(len(win.batchMS)),
			"loader.self_us_per_sample":            rows[0].us,
			"loader.batch_p90_ms":                  p90,
			"loader.batch_p99_ms":                  p99,
			"core.client.self_us_per_sample":       rows[1].us,
			"core.client.rpcs_per_sample":          float64(rpcs) / n,
			"core.client.fallbacks":                float64(c[cFallbacks]),
			"core.client.degrades":                 float64(c[cDegrades]),
			"core.client.batch_fallbacks":          float64(c[cBatchFallbacks]),
			"core.client.retries":                  float64(c[cRetries]),
			"transport.call_us_p50.open":           median(calls["open"]),
			"transport.call_us_p50.read":           median(calls["read"]),
			"transport.call_us_p50.close":          median(calls["close"]),
			"transport.call_us_p50.readbatch":      median(calls["readbatch"]),
			"transport.wire_us_per_sample":         rows[2].us,
			"core.server.handler_us_per_sample":    rows[3].us,
			"core.server.hit_frac":                 ratio(c[cHits], c[cHits]+c[cReadThroughs]),
			"core.server.fills":                    float64(c[cFills]),
			"core.server.evictions":                float64(c[cEvictions]),
			"core.server.fill_copy_us_mean":        ratio(c[cCopyNS], c[cCopies]) / 1e3,
			"core.server.demand_rejects":           float64(c[cDemandRejects]),
			"core.server.prefetch_drops":           float64(c[cPrefetchDrops]),
			"core.server.queue_depth_max":          float64(win.queueMax),
			"core.server.zc_sends_per_sample":      float64(c[cZCSends]) / n,
			"core.server.zc_fallbacks":             float64(c[cZCFallbacks]),
			"cachestore.used_bytes":                float64(usedBytes),
			"cachestore.files":                     float64(cachedFiles),
			"pfs.opens_per_sample":                 float64(c[cPFSOpens]) / n,
			"pfs.bytes_per_payload_byte":           float64(c[cPFSOpens]) * float64(w.fileSize) / float64(win.bytes),
			"pfs.open_us_mean":                     ratio(total["pfs"], pfsSpans) / 1e3,
			"baseline.direct_samples_per_s":        direct,
			"baseline.nvme_speed_frac":             refRate / direct,
			"process.allocs_per_sample":            float64(ref.mallocs) / float64(ref.samples),
			"process.alloc_bytes_per_payload_byte": float64(ref.allocBytes) / float64(ref.bytes),
			"process.gc_pause_ms":                  float64(ref.gcPause.Nanoseconds()) / 1e6,
			"process.cpu_sys_frac":                 ratio(ref.sys.Nanoseconds(), (ref.user + ref.sys).Nanoseconds()),
			"process.peak_rss_mb":                  peakRSS,
			"setup.epoch1_samples_per_s":           fx.epoch1,
			"trace.wall_us_per_sample":             wallUS,
			"trace.residual_us_per_sample":         residual,
			"trace.overhead_frac":                  1 - tracedRate/refRate,
			"machine.calib_factor":                 median(factors),
		}
		for name, v := range probes {
			m[name] = v
		}

		failed := ref.failed() + win.failed()
		r := &result{
			defs: perLayer, metrics: m,
			correct:   verr == nil && failed == 0,
			attempted: ref.samples + win.samples, failed: failed,
		}

		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		spanFile := filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")
		if err := writeSpans(spanFile, spans); err != nil {
			return nil, err
		}

		fmt.Fprintf(cfg.out, "\n== %s (traced): %d x %d KiB, batch %d; %d spans -> %s\n", w.name, w.files, w.fileSize>>10, w.batch, len(spans), spanFile)
		fmt.Fprintf(cfg.out, "  layer table, us per sample over %d traced samples:\n", win.samples)
		for _, row := range rows {
			fmt.Fprintf(cfg.out, "    %-22s %10.2f  %5.1f%%\n", row.name, row.us, 100*row.us/wallUS)
		}
		fmt.Fprintf(cfg.out, "    %-22s %10.2f  %5.1f%%  (stamp check, epoch turnaround, span recording)\n", "residual", residual, 100*residual/wallUS)
		fmt.Fprintf(cfg.out, "    %-22s %10.2f  = wall-clock per sample\n", "sum", wallUS)
		r.report(cfg.out, nil)
		if verr != nil {
			fmt.Fprintf(cfg.out, "  verify: FAILED: %v\n", verr)
		}
		return r, nil
	})
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
