package experiments

import (
	"fmt"

	"hvac/internal/cachestore"
	"hvac/internal/dataset"
	"hvac/internal/metrics"
	"hvac/internal/place"
	"hvac/internal/sim"
	"hvac/internal/summit"
	"hvac/internal/train"
	"hvac/internal/vfs"
)

// AblationEviction runs ResNet50 training with per-instance cache capacity
// covering only a fraction of the dataset shard, comparing the paper's
// random eviction with LRU and FIFO: warm epochs keep missing, and the
// policy decides how often.
func AblationEviction(opt Options) []*metrics.Table {
	a := apps()[0]
	nodes := 16
	epochs := 4
	data := a.data(opt)
	// Each of the nodes instances homes ~1/nodes of the dataset; give it
	// room for half its share so every warm epoch still evicts.
	share := data.TotalTrainBytes() / int64(nodes)
	capacity := share / 2

	policies := map[string]func(seed uint64) cachestore.Policy{
		"random": func(seed uint64) cachestore.Policy { return cachestore.NewRandom(seed) },
		"lru":    func(uint64) cachestore.Policy { return cachestore.NewLRU() },
		"fifo":   func(uint64) cachestore.Policy { return cachestore.NewFIFO() },
	}
	order := []string{"random", "lru", "fifo"}

	t := metrics.NewTable(
		fmt.Sprintf("Ablation: eviction policy under pressure (capacity = 50%% of per-server share, %s, %d nodes, %d epochs)",
			data.Name, nodes, epochs),
		"policy", "train time (min)", "GPFS re-fetches", "evictions", "hit rate")
	for _, name := range order {
		mk := policies[name]
		eng := sim.NewEngine()
		ns := vfs.NewNamespace()
		data.Build(ns, false)
		cluster := summit.NewCluster(eng, nodes, ns)
		cluster.RegisterJob(nodes * 2)
		job := cluster.StartHVAC(summit.HVACOptions{
			InstancesPerNode:    1,
			EvictionSeed:        opt.Seed,
			Eviction:            mk,
			CapacityPerInstance: capacity,
		})
		cfg := train.Config{
			Model: a.model, Data: data, Nodes: nodes,
			BatchSize: a.batch, Epochs: epochs, Seed: opt.Seed,
		}
		res, err := train.Run(eng, cfg, job.FS())
		if err != nil {
			panic(err)
		}
		st := job.TotalStats()
		refetches := st.Misses - int64(data.TrainFiles)
		hitRate := float64(st.Hits) / float64(st.Hits+st.Misses)
		t.AddRow(name,
			fmt.Sprintf("%.3f", minutes(res.TrainTime.Seconds())),
			fmt.Sprint(refetches), fmt.Sprint(st.Evictions),
			fmt.Sprintf("%.4f", hitRate))
		opt.progress("ablation-eviction %s done", name)
	}
	return []*metrics.Table{t}
}

// AblationInstances sweeps instances per node beyond the paper's 1/2/4
// and reports data-mover utilisation, the mechanism behind the Fig. 9b
// ladder.
func AblationInstances(opt Options) []*metrics.Table {
	a := apps()[0]
	nodes := 128
	if opt.Full {
		nodes = 512
	}
	data := a.data(opt)
	t := metrics.NewTable(
		fmt.Sprintf("Ablation: HVAC instances per node (%s, %d nodes, 3 epochs)", data.Name, nodes),
		"instances", "train time (min)", "epoch-1 (s)", "warm epoch (s)", "max mover util")
	for _, inst := range []int{1, 2, 4, 8} {
		eng := sim.NewEngine()
		ns := vfs.NewNamespace()
		data.Build(ns, false)
		cluster := summit.NewCluster(eng, nodes, ns)
		cluster.RegisterJob(nodes * 2)
		job := cluster.StartHVAC(summit.HVACOptions{InstancesPerNode: inst, EvictionSeed: opt.Seed})
		cfg := train.Config{
			Model: a.model, Data: data, Nodes: nodes,
			BatchSize: a.batch, Epochs: 3, Seed: opt.Seed,
		}
		res, err := train.Run(eng, cfg, job.FS())
		if err != nil {
			panic(err)
		}
		var maxUtil float64
		for _, s := range job.Servers {
			if u := s.MoverUtilization(); u > maxUtil {
				maxUtil = u
			}
		}
		warm := res.EpochTimes[len(res.EpochTimes)-1]
		t.AddFloats(fmt.Sprint(inst), 3,
			minutes(res.TrainTime.Seconds()), res.EpochTimes[0].Seconds(),
			warm.Seconds(), maxUtil)
		opt.progress("ablation-instances i=%d done", inst)
	}
	return []*metrics.Table{t}
}

// AblationPrefetch implements and evaluates the paper's future work
// (§IV-C): pre-populating the HVAC cache before training removes the
// first-epoch overhead, at the cost of an explicit staging phase.
func AblationPrefetch(opt Options) []*metrics.Table {
	a := apps()[0]
	nodes := 128
	if opt.Full {
		nodes = 512
	}
	data := a.data(opt)
	t := metrics.NewTable(
		fmt.Sprintf("Ablation: prefetch pre-population, HVAC(1x1) (%s, %d nodes, 4 epochs)", data.Name, nodes),
		"variant", "stage (s)", "epoch-1 (s)", "warm epoch (s)", "train total (min)")
	for _, prewarm := range []bool{false, true} {
		eng := sim.NewEngine()
		ns := vfs.NewNamespace()
		data.Build(ns, false)
		cluster := summit.NewCluster(eng, nodes, ns)
		cluster.RegisterJob(nodes * 2)
		job := cluster.StartHVAC(summit.HVACOptions{InstancesPerNode: 1, EvictionSeed: opt.Seed})
		var stage float64
		if prewarm {
			d, err := job.Prewarm()
			if err != nil {
				panic(err)
			}
			stage = d.Seconds()
		}
		cfg := train.Config{
			Model: a.model, Data: data, Nodes: nodes,
			BatchSize: a.batch, Epochs: 4, Seed: opt.Seed,
		}
		res, err := train.Run(eng, cfg, job.FS())
		if err != nil {
			panic(err)
		}
		name := "cold (paper)"
		if prewarm {
			name = "prefetched"
		}
		warm := res.EpochTimes[len(res.EpochTimes)-1]
		t.AddFloats(name, 3, stage, res.EpochTimes[0].Seconds(), warm.Seconds(),
			minutes(res.TrainTime.Seconds()))
		opt.progress("ablation-prefetch prewarm=%v done", prewarm)
	}
	return []*metrics.Table{t}
}

// AblationSegments evaluates segment-level caching (§III-E's suggested
// fix for highly skewed file sizes): per-server byte load at file
// granularity versus segment granularity, plus a training run over a
// skewed dataset.
func AblationSegments(opt Options) []*metrics.Table {
	// A deliberately skewed dataset: log-normal sizes with sigma 1.4
	// around a 2 MB mean — a few files are 50-100x the median.
	skewed := dataset.Spec{
		Name: "skewed", TrainFiles: 4000, MeanFileSize: 2 << 20,
		SizeSigma: 1.4, PathPrefix: "/gpfs/skewed",
	}
	if opt.Full {
		skewed.TrainFiles = 40000
	}
	ns := vfs.NewNamespace()
	skewed.Build(ns, false)
	nodes := 32
	const segSize = 1 << 20

	// Static byte-load balance.
	pol := place.ModHash{}
	fileBytes := make([]int64, nodes)
	segBytes := make([]int64, nodes)
	for _, path := range ns.Paths() {
		size, _ := ns.Lookup(path)
		fileBytes[pol.Place(path, nodes)] += size
		for seg := int64(0); seg*segSize < size; seg++ {
			b := size - seg*segSize
			if b > segSize {
				b = segSize
			}
			segBytes[pol.Place(fmt.Sprintf("%s@%d", path, seg), nodes)] += b
		}
	}
	balance := metrics.NewTable(
		fmt.Sprintf("Ablation: per-server byte load, skewed sizes (%d files, %d servers)", ns.Len(), nodes),
		"granularity", "cv", "max/mean")
	for _, row := range []struct {
		name  string
		bytes []int64
	}{{"file (paper)", fileBytes}, {"1MB segments", segBytes}} {
		var s metrics.Sample
		for _, b := range row.bytes {
			s.Add(float64(b))
		}
		balance.AddFloats(row.name, 4, s.CV(), s.Max()/s.Mean())
	}

	// Dynamic: train over the skewed dataset both ways.
	timing := metrics.NewTable(
		"Ablation: training time over the skewed dataset (HVAC 1x1, 3 epochs)",
		"granularity", "train time (min)")
	for _, seg := range []int64{0, segSize} {
		eng := sim.NewEngine()
		ns2 := vfs.NewNamespace()
		skewed.Build(ns2, false)
		cluster := summit.NewCluster(eng, nodes, ns2)
		cluster.RegisterJob(nodes * 2)
		job := cluster.StartHVAC(summit.HVACOptions{
			InstancesPerNode: 1, EvictionSeed: opt.Seed, SegmentSize: seg,
		})
		cfg := train.Config{
			Model: train.CosmoFlow(), Data: skewed, Nodes: nodes,
			BatchSize: 16, Epochs: 3, Seed: opt.Seed,
		}
		res, err := train.Run(eng, cfg, job.FS())
		if err != nil {
			panic(err)
		}
		name := "file (paper)"
		if seg > 0 {
			name = "1MB segments"
		}
		timing.AddFloats(name, 3, minutes(res.TrainTime.Seconds()))
		opt.progress("ablation-segments seg=%d done", seg)
	}
	return []*metrics.Table{balance, timing}
}

// AblationReplication exercises the §III-H failover design with a batch
// of failed servers in the allocation: replicas keep reads on NVMe;
// without them, reads fall back to GPFS.
func AblationReplication(opt Options) []*metrics.Table {
	a := apps()[0]
	nodes := 64
	data := a.data(opt)
	failures := nodes / 8
	t := metrics.NewTable(
		fmt.Sprintf("Ablation: replication with %d of %d servers failed (%s, 3 epochs)", failures, nodes, data.Name),
		"replicas", "train time (min)", "failovers", "GPFS fallbacks")
	for _, replicas := range []int{1, 2, 3} {
		eng := sim.NewEngine()
		ns := vfs.NewNamespace()
		data.Build(ns, false)
		cluster := summit.NewCluster(eng, nodes, ns)
		cluster.RegisterJob(nodes * 2)
		job := cluster.StartHVAC(summit.HVACOptions{
			InstancesPerNode: 1,
			Replicas:         replicas,
			EvictionSeed:     opt.Seed,
		})
		// Fail a deterministic set of servers before the run: their files
		// must come from replicas (if any) or fall back to the PFS.
		for f := 0; f < failures; f++ {
			job.Servers[(f*7+3)%len(job.Servers)].Fail()
		}
		cfg := train.Config{
			Model: a.model, Data: data, Nodes: nodes,
			BatchSize: a.batch, Epochs: 3, Seed: opt.Seed,
		}
		res, err := train.Run(eng, cfg, job.FS())
		if err != nil {
			panic(err)
		}
		var failovers, fallbacks int64
		for n := 0; n < nodes; n++ {
			st := job.Client(n).Stats()
			failovers += st.Failovers
			fallbacks += st.Fallbacks
		}
		t.AddRow(fmt.Sprint(replicas),
			fmt.Sprintf("%.3f", minutes(res.TrainTime.Seconds())),
			fmt.Sprint(failovers), fmt.Sprint(fallbacks))
		opt.progress("ablation-replication r=%d done", replicas)
	}
	return []*metrics.Table{t}
}
