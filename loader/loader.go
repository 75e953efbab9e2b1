// Package loader provides a data-parallel, shuffling batch loader for
// training jobs that read their samples through HVAC (or any byte
// source): the Go analogue of the PyTorch DataLoader + DistributedSampler
// pair whose access pattern the paper profiles (§II-B, §III-F).
//
// Semantics match the paper's description of DL data loading exactly:
//
//   - every epoch visits every sample exactly once, in a fresh
//     pseudo-random order derived from (seed, epoch) — identical across
//     all ranks, so the global shuffle is consistent;
//   - rank r of w takes the strided shard perm[r], perm[r+w], ... ;
//   - each batch's files are fetched with a bounded worker pool, one full
//     <open, read, close> transaction per file.
//
// Because the shuffle depends only on (seed, epoch), two runs over
// different storage backends consume identical byte streams — the
// property behind the paper's Fig. 14 accuracy equivalence.
//
// The loader owns the epoch, so it is the code that knows when a sample's
// bytes are dead: once a batch's callback has returned, each of its
// buffers goes back to internal/slab, and the next hvac.Client.ReadAll
// refills it instead of allocating and zeroing a fresh one. So Batch.Data
// is valid only until the callback returns, as bufio.Scanner.Bytes is
// until the next Scan; a callback that keeps a sample copies it.
package loader

import (
	"fmt"
	"sync"

	"hvac/internal/sim"
	"hvac/internal/slab"
	"hvac/internal/train"
)

// Source reads one sample file in full. hvac.Client.ReadAll and
// os.ReadFile both satisfy it. A slice it returns from ReadAll is handed
// to the loader, which recycles it after the batch: a Source that keeps
// such a slice for a later call returns a copy instead.
type Source func(path string) ([]byte, error)

// BatchSource reads a whole batch of sample files in one scatter-gather
// pass, returning contents indexed like paths. hvac.Client.ReadBatch
// satisfies it. When set, the loader fetches each batch through it — one
// RPC per (server, batch) instead of one <open, read, close> transaction
// per file — and the worker pool is bypassed.
type BatchSource func(paths []string) ([][]byte, error)

// Config parameterises a Loader.
type Config struct {
	// Paths is the dataset: one sample per file.
	Paths []string
	// BatchSize is samples per batch (per rank). Default 32.
	BatchSize int
	// Workers is the concurrent fetch width within a batch. Default 4.
	Workers int
	// Seed drives the per-epoch shuffles.
	Seed uint64
	// Rank and World shard the dataset for data-parallel training.
	// Defaults: rank 0 of 1.
	Rank, World int
	// DropLast discards a trailing partial batch.
	DropLast bool
	// BatchSource, when non-nil, fetches each batch in one scatter-gather
	// pass instead of per-file Source transactions through the worker
	// pool. The per-file Source remains required: it is the fallback when
	// the batch fetch fails.
	BatchSource BatchSource
}

// Batch is one training batch.
type Batch struct {
	// Epoch and Index locate the batch.
	Epoch, Index int
	// Paths are the sample files, in consumption order.
	Paths []string
	// Data holds the corresponding file contents. It is valid until the
	// callback returns: the loader then recycles the buffers.
	Data [][]byte
}

// Loader produces shuffled batches from a Source.
type Loader struct {
	src Source
	cfg Config
}

// New validates cfg and builds a Loader.
func New(src Source, cfg Config) (*Loader, error) {
	if src == nil {
		return nil, fmt.Errorf("loader: nil source")
	}
	if len(cfg.Paths) == 0 {
		return nil, fmt.Errorf("loader: empty dataset")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.World <= 0 {
		cfg.World = 1
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.World {
		return nil, fmt.Errorf("loader: rank %d outside world %d", cfg.Rank, cfg.World)
	}
	return &Loader{src: src, cfg: cfg}, nil
}

// EpochOrder returns this rank's sample paths for epoch e, in consumption
// order (before batching). The order is a pure function of (seed, epoch,
// rank, world).
func (l *Loader) EpochOrder(e int) []string {
	n := len(l.cfg.Paths)
	perm := train.NewPerm(sim.NewRNG(train.EpochSeed(l.cfg.Seed, e)), n)
	var out []string
	for k := l.cfg.Rank; k < n; k += l.cfg.World {
		out = append(out, l.cfg.Paths[perm.Index(k)])
	}
	return out
}

// BatchesPerEpoch reports how many batches Epoch will yield.
func (l *Loader) BatchesPerEpoch() int {
	n := len(l.cfg.Paths)
	shard := (n - l.cfg.Rank + l.cfg.World - 1) / l.cfg.World
	if l.cfg.DropLast {
		return shard / l.cfg.BatchSize
	}
	return (shard + l.cfg.BatchSize - 1) / l.cfg.BatchSize
}

// Epoch fetches epoch e batch by batch, invoking fn for each. Fetching
// within a batch is concurrent (Config.Workers); batches are delivered in
// order. The first fetch or callback error aborts the epoch. Each batch's
// buffers are recycled when fn returns, whatever it returned.
func (l *Loader) Epoch(e int, fn func(Batch) error) error {
	order := l.EpochOrder(e)
	bs := l.cfg.BatchSize
	idx := 0
	for start := 0; start < len(order); start += bs {
		end := start + bs
		if end > len(order) {
			if l.cfg.DropLast {
				break
			}
			end = len(order)
		}
		batch := Batch{
			Epoch: e,
			Index: idx,
			Paths: order[start:end],
			Data:  make([][]byte, end-start),
		}
		if err := l.fetch(batch.Paths, batch.Data); err != nil {
			return fmt.Errorf("loader: epoch %d batch %d: %w", e, idx, err)
		}
		err := fn(batch)
		recycle(batch.Data)
		if err != nil {
			return err
		}
		idx++
	}
	return nil
}

// fetch fills data[i] from paths[i]: through one BatchSource pass when
// configured, else with the per-file worker pool. Errors never surface a
// torn batch — a failed fetch zeroes whatever was partially filled.
func (l *Loader) fetch(paths []string, data [][]byte) error {
	if l.cfg.BatchSource != nil {
		out, err := l.cfg.BatchSource(paths)
		if err == nil && len(out) == len(paths) {
			copy(data, out)
			return nil
		}
		// Discard the partial result and degrade to the per-file path,
		// which carries the Source's own fallback behaviour.
		recycle(out)
	}
	workers := l.cfg.Workers
	if workers > len(paths) {
		workers = len(paths)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		err  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if err != nil || next >= len(paths) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				b, e := l.src(paths[i])
				if e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					return
				}
				data[i] = b
			}
		}()
	}
	wg.Wait()
	if err != nil {
		// The workers that did not hit the error may have finished their
		// samples: recycle and zero the batch so the caller never observes
		// torn data next to a non-nil error.
		recycle(data)
	}
	return err
}

// recycle gives every buffer of data back to the slab, which ignores the
// ones it did not hand out, and clears the slots.
func recycle(data [][]byte) {
	for i := range data {
		slab.Put(data[i])
		data[i] = nil
	}
}
