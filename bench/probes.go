package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hvac/internal/cachestore"
	"hvac/internal/place"
	"hvac/internal/transport"
	"hvac/loader"
)

// The probes time single layers in isolation, outside the epoch: they
// are the floors the in-path rows of the layer table are read against.

// directRate runs the workload's loader with os.ReadFile as the Source,
// straight off the workdir: the paper's node-local upper bound.
func (fx *fixture) directRate(seconds float64) (float64, error) {
	ld, err := loader.New(os.ReadFile, loader.Config{Paths: fx.paths, BatchSize: fx.w.batch, Workers: numClients(), Seed: 1})
	if err != nil {
		return 0, err
	}
	var rates []float64
	begin := time.Now()
	for e := 0; e == 0 || time.Since(begin).Seconds() < seconds; e++ {
		start := time.Now()
		if err := ld.Epoch(e, func(loader.Batch) error { return nil }); err != nil {
			return 0, err
		}
		rates = append(rates, float64(len(fx.paths))/time.Since(start).Seconds())
	}
	return median(rates), nil
}

// runProbes times the isolated probes at the workload's file size.
func runProbes(dir string, fx *fixture) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, e := range []struct {
		name string
		size int
	}{{"0", 0}, {"32k", 32 << 10}, {"8m", 8 << 20}} {
		rtt, err := echoRTT(e.size)
		if err != nil {
			return nil, err
		}
		m["transport.echo_rtt_us."+e.name] = rtt
	}
	if err := storeProbes(filepath.Join(dir, "probe"), fx, m); err != nil {
		return nil, err
	}

	view := place.NewView(place.ModHash{}, numServers)
	homes := make([]int, numServers)
	var reps []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for _, p := range fx.paths {
			homes[view.Place(p)]++
		}
		reps = append(reps, float64(time.Since(start).Nanoseconds())/float64(len(fx.paths)))
	}
	m["place.place_ns"] = median(reps)
	m["place.imbalance"] = float64(max(homes[0], homes[1])) * numServers / float64(homes[0]+homes[1])
	return m, nil
}

// echoRTT is the transport's round-trip floor: transport.Serve with a
// handler that answers size bytes, called through transport.Dial.
func echoRTT(size int) (float64, error) {
	payload := make([]byte, size)
	srv, err := transport.Serve("127.0.0.1:0", func(*transport.Request) *transport.Response {
		return &transport.Response{Status: transport.StatusOK, Data: payload}
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	link := transport.Dial(srv.Addr())
	defer link.Close()
	iters := 2000
	if size > 1<<20 {
		iters = 40
	}
	var us []float64
	for i := 0; i < iters; i++ {
		start := time.Now()
		resp, err := link.Call(&transport.Request{Op: transport.OpPing})
		if err != nil {
			return 0, err
		}
		resp.Release()
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// storeProbes times a cachestore.Store in dir at the workload's file
// size: a fill (PutWriter + CopyFrom + Commit), the same fill at
// capacity so that it evicts, and a leased whole-file read.
func storeProbes(dir string, fx *fixture, m map[string]float64) error {
	size := int64(fx.w.fileSize)
	n := int(min(max((64<<20)/size, 8), 256))
	n = min(n, len(fx.paths)/2)

	// Capacity for n files: the first n fills fit, the next n each evict.
	store, err := cachestore.NewStore(dir, int64(n)*size, cachestore.NewRandom(0))
	if err != nil {
		return err
	}
	defer func() {
		_ = store.Purge()  // best-effort: the run's workdir is removed anyway
		_ = os.Remove(dir) // likewise
	}()
	fill := func(path string) (float64, error) {
		src, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer src.Close()
		start := time.Now()
		f, err := store.PutWriter(path, size)
		if err != nil {
			return 0, err
		}
		if _, err := f.CopyFrom(src, 0, size); err != nil {
			f.Abort(err)
			return 0, err
		}
		if err := f.Commit(); err != nil {
			return 0, err
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3, nil
	}
	var fills, leases, evictFills []float64
	for _, p := range fx.paths[:n] {
		us, err := fill(p)
		if err != nil {
			return err
		}
		fills = append(fills, us)
	}
	buf := make([]byte, size)
	for _, p := range fx.paths[:n] {
		start := time.Now()
		if got, err := leasedRead(store, p, buf); err != nil || int64(got) != size {
			return fmt.Errorf("probe: leased read of %s: %d of %d bytes: %v", p, got, size, err)
		}
		leases = append(leases, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for _, p := range fx.paths[n : 2*n] {
		us, err := fill(p)
		if err != nil {
			return err
		}
		evictFills = append(evictFills, us)
	}
	if _, _, evictions := store.Stats(); evictions < int64(n) {
		return fmt.Errorf("probe: %d fills at capacity evicted only %d files", n, evictions)
	}
	m["cachestore.fill_us"] = median(fills)
	m["cachestore.lease_read_us"] = median(leases)
	m["cachestore.evict_fill_us"] = median(evictFills)
	return nil
}

// leasedRead reads key's cached file through an fd lease, the way the
// zero-copy serve path holds it.
func leasedRead(store *cachestore.Store, key string, buf []byte) (int, error) {
	l, err := store.Lease(key)
	if err != nil {
		return 0, err
	}
	defer l.Release()
	return l.ReadAt(buf, 0)
}
