package train

import (
	"fmt"
	"time"

	"hvac/internal/dataset"
	"hvac/internal/sim"
	"hvac/internal/vfs"
)

// Config parameterises one distributed training run.
type Config struct {
	// Model selects the application.
	Model Model
	// Data optionally overrides the model's dataset (e.g. a scaled copy
	// for the fast benchmark mode). Zero value means Model.Data.
	Data dataset.Spec
	// Nodes is the allocation size.
	Nodes int
	// ProcsPerNode is the number of training processes per node (the
	// paper runs two concurrent DL training jobs per node, Fig. 8).
	ProcsPerNode int
	// GPUsPerProc is how many of the node's six V100s each process
	// drives (default 3).
	GPUsPerProc int
	// LoaderWorkers is the number of parallel data-loader workers per
	// process (PyTorch DataLoader num_workers; default 6). The batch is
	// fetched synchronously before each iteration, matching the loader
	// profile the paper observed (§III-F).
	LoaderWorkers int
	// BatchSize is files per process per iteration.
	BatchSize int
	// Epochs is the number of passes over the training set.
	Epochs int
	// Seed drives the per-epoch shuffles; two runs with the same seed
	// consume files in the identical order regardless of file system.
	Seed uint64
	// RecordOrder, if > 0, records the first N file paths rank 0 reads in
	// each epoch (used to verify HVAC preserves the shuffle).
	RecordOrder int
	// AccuracyEveryIters, if > 0, records an accuracy point on rank 0
	// every k iterations (Fig. 14).
	AccuracyEveryIters int
}

func (c Config) withDefaults() Config {
	if c.Data.Name == "" {
		c.Data = c.Model.Data
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = 2
	}
	if c.GPUsPerProc <= 0 {
		c.GPUsPerProc = 3
	}
	if c.LoaderWorkers <= 0 {
		c.LoaderWorkers = 6
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	return c
}

// AccPoint is one accuracy observation (Fig. 14).
type AccPoint struct {
	Iteration  int
	Top1, Top5 float64
}

// Result reports a completed run.
type Result struct {
	// TrainTime is the wall-clock (virtual) duration of the whole run.
	TrainTime time.Duration
	// EpochTimes are per-epoch durations (epoch 1 first).
	EpochTimes []time.Duration
	// IOTime and ComputeTime are rank-0 totals: the per-iteration batch
	// fetch (the data stall) and the busy-GPU time.
	IOTime      time.Duration
	ComputeTime time.Duration
	// FilesRead counts file transactions across all ranks.
	FilesRead int64
	// ReadErrors counts failed file reads (failure-injection runs).
	ReadErrors int64
	// OrderTrace is rank 0's recorded read order per epoch.
	OrderTrace [][]string
	// Accuracy is rank 0's accuracy curve.
	Accuracy []AccPoint
	// World is the total rank count.
	World int
}

type loadJob struct {
	path string
	wg   *sim.WaitGroup
}

// Run executes the training job on eng, reading every rank's data through
// fsFor(node, proc), and drives the engine to completion. The engine must
// not have other unfinished work.
func Run(eng *sim.Engine, cfg Config, fsFor func(node, proc int) vfs.FS) (*Result, error) {
	cfg = cfg.withDefaults()
	world := cfg.Nodes * cfg.ProcsPerNode
	n := cfg.Data.TrainFiles
	res := &Result{World: world}

	epochBarrier := sim.NewBarrier(world)
	epochStart := eng.Now()
	runStart := eng.Now()
	var runEnd sim.Time
	iterTime := cfg.Model.ComputeTime(cfg.BatchSize, cfg.GPUsPerProc) +
		cfg.Model.AllreduceTime(world)

	for node := 0; node < cfg.Nodes; node++ {
		for proc := 0; proc < cfg.ProcsPerNode; proc++ {
			node, proc := node, proc
			rank := node*cfg.ProcsPerNode + proc
			fs := fsFor(node, proc)

			// Persistent loader-worker pool for this rank.
			jobs := &sim.Queue[loadJob]{}
			for w := 0; w < cfg.LoaderWorkers; w++ {
				eng.Spawn(fmt.Sprintf("rank%d-loader%d", rank, w), func(p *sim.Proc) {
					for {
						job, ok := jobs.Get(p)
						if !ok {
							return
						}
						if _, err := vfs.ReadFile(p, fs, job.path); err != nil {
							res.ReadErrors++
						} else {
							res.FilesRead++
						}
						job.wg.Done()
					}
				})
			}

			eng.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
				defer jobs.Close()
				var localIO, localCompute time.Duration
				for e := 0; e < cfg.Epochs; e++ {
					perm := NewPerm(sim.NewRNG(EpochSeed(cfg.Seed, e)), n)
					var order []string
					iter := 0
					// Strided shard of the global shuffle
					// (DistributedSampler semantics).
					for base := rank; base < n; base += world * cfg.BatchSize {
						ioStart := p.Now()
						var wg sim.WaitGroup
						for b := 0; b < cfg.BatchSize; b++ {
							k := base + b*world
							if k >= n {
								break
							}
							path := cfg.Data.TrainPath(perm.Index(k))
							if rank == 0 && len(order) < cfg.RecordOrder {
								order = append(order, path)
							}
							wg.Add(1)
							jobs.Put(loadJob{path: path, wg: &wg})
						}
						wg.Wait(p)
						localIO += p.Now().Sub(ioStart)
						// Forward + backward + allreduce.
						p.Sleep(iterTime)
						localCompute += iterTime
						iter++
						if rank == 0 && cfg.AccuracyEveryIters > 0 && iter%cfg.AccuracyEveryIters == 0 {
							seen := float64(e*n) + float64(iter*cfg.BatchSize*world)
							t1, t5 := cfg.Model.Accuracy(seen)
							itersPerEpoch := (n + world*cfg.BatchSize - 1) / (world * cfg.BatchSize)
							res.Accuracy = append(res.Accuracy, AccPoint{
								Iteration: e*itersPerEpoch + iter,
								Top1:      t1, Top5: t5,
							})
						}
					}
					epochBarrier.Wait(p)
					if rank == 0 {
						now := p.Now()
						res.EpochTimes = append(res.EpochTimes, now.Sub(epochStart))
						epochStart = now
						if cfg.RecordOrder > 0 {
							res.OrderTrace = append(res.OrderTrace, order)
						}
					}
				}
				if rank == 0 {
					res.IOTime = localIO
					res.ComputeTime = localCompute
					runEnd = p.Now()
				}
			})
		}
	}
	// RunAll drains everything, including background data-mover copies
	// that outlive the job's last iteration; training time is the last
	// epoch barrier, as a real job's walltime would be.
	if err := eng.RunAll(); err != nil {
		return nil, err
	}
	res.TrainTime = runEnd.Sub(runStart)
	return res, nil
}
