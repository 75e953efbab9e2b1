package train

import (
	"testing"
	"time"

	"hvac/internal/dataset"
	"hvac/internal/sim"
	"hvac/internal/summit"
)

// tinySpec is a small dataset for fast tests.
func tinySpec(files int, size int64) dataset.Spec {
	return dataset.Spec{
		Name: "tiny", TrainFiles: files, MeanFileSize: size,
		PathPrefix: "/gpfs/tiny",
	}
}

func tinyConfig(files int) Config {
	return Config{
		Model:        ResNet50(),
		Data:         tinySpec(files, 64<<10),
		Nodes:        2,
		ProcsPerNode: 2,
		BatchSize:    4,
		Epochs:       2,
		Seed:         7,
	}
}

func TestRunOnGPFS(t *testing.T) {
	cfg := tinyConfig(64)
	eng := sim.NewEngine()
	cl := summit.NewCluster(eng, cfg.Nodes, cfg.Data.Namespace())
	res, err := Run(eng, cfg, cl.GPFSFS())
	if err != nil {
		t.Fatal(err)
	}
	if res.World != 4 {
		t.Fatalf("world = %d", res.World)
	}
	if res.FilesRead != 2*64 {
		t.Fatalf("files read = %d, want 128 (2 epochs x 64)", res.FilesRead)
	}
	if len(res.EpochTimes) != 2 {
		t.Fatalf("epoch times = %v", res.EpochTimes)
	}
	if res.TrainTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	var sum time.Duration
	for _, e := range res.EpochTimes {
		sum += e
	}
	if diff := res.TrainTime - sum; diff < 0 || diff > res.TrainTime/10 {
		t.Fatalf("epochs (%v) do not account for train time (%v)", sum, res.TrainTime)
	}
	if res.ReadErrors != 0 {
		t.Fatalf("read errors = %d", res.ReadErrors)
	}
}

func TestEveryFileReadOncePerEpoch(t *testing.T) {
	cfg := tinyConfig(100)
	cfg.Epochs = 1
	cfg.RecordOrder = 1 << 20
	cfg.Nodes = 1
	cfg.ProcsPerNode = 1 // rank 0 reads everything; order trace is complete
	eng := sim.NewEngine()
	cl := summit.NewCluster(eng, 1, cfg.Data.Namespace())
	res, err := Run(eng, cfg, cl.GPFSFS())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OrderTrace) != 1 {
		t.Fatalf("order traces = %d", len(res.OrderTrace))
	}
	seen := map[string]bool{}
	for _, p := range res.OrderTrace[0] {
		if seen[p] {
			t.Fatalf("file %s read twice in one epoch", p)
		}
		seen[p] = true
	}
	if len(seen) != 100 {
		t.Fatalf("%d distinct files read, want 100", len(seen))
	}
}

func TestShuffleDiffersAcrossEpochs(t *testing.T) {
	cfg := tinyConfig(200)
	cfg.Nodes, cfg.ProcsPerNode = 1, 1
	cfg.Epochs = 2
	cfg.RecordOrder = 200
	eng := sim.NewEngine()
	cl := summit.NewCluster(eng, 1, cfg.Data.Namespace())
	res, err := Run(eng, cfg, cl.GPFSFS())
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range res.OrderTrace[0] {
		if res.OrderTrace[0][i] == res.OrderTrace[1][i] {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("epochs share %d/200 positions; shuffle not re-randomised", same)
	}
}

// The Fig. 14 invariant: the read order depends only on the seed, never on
// the file system — HVAC does not perturb SGD randomness.
func TestOrderIdenticalAcrossBackends(t *testing.T) {
	cfg := tinyConfig(128)
	cfg.RecordOrder = 64
	run := func(kind string) [][]string {
		eng := sim.NewEngine()
		cl := summit.NewCluster(eng, cfg.Nodes, cfg.Data.Namespace())
		var res *Result
		var err error
		switch kind {
		case "gpfs":
			res, err = Run(eng, cfg, cl.GPFSFS())
		case "xfs":
			res, err = Run(eng, cfg, cl.XFSFS())
		case "hvac":
			job := cl.StartHVAC(summit.HVACOptions{InstancesPerNode: 2})
			res, err = Run(eng, cfg, job.FS())
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.OrderTrace
	}
	g, x, h := run("gpfs"), run("xfs"), run("hvac")
	for e := range g {
		for i := range g[e] {
			if g[e][i] != x[e][i] || g[e][i] != h[e][i] {
				t.Fatalf("epoch %d position %d: order differs across backends", e, i)
			}
		}
	}
}

func TestAccuracyCurve(t *testing.T) {
	cfg := tinyConfig(256)
	cfg.AccuracyEveryIters = 4
	cfg.Epochs = 3
	eng := sim.NewEngine()
	cl := summit.NewCluster(eng, cfg.Nodes, cfg.Data.Namespace())
	res, err := Run(eng, cfg, cl.GPFSFS())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accuracy) == 0 {
		t.Fatal("no accuracy points recorded")
	}
	prev := AccPoint{}
	for _, pt := range res.Accuracy {
		if pt.Top1 < prev.Top1 || pt.Top5 < prev.Top5 {
			t.Fatalf("accuracy regressed: %+v after %+v", pt, prev)
		}
		if pt.Top5 < pt.Top1 {
			t.Fatalf("top5 (%f) below top1 (%f)", pt.Top5, pt.Top1)
		}
		if pt.Iteration <= prev.Iteration {
			t.Fatalf("iterations not increasing: %+v", pt)
		}
		prev = pt
	}
}

func TestModelAccuracyProperties(t *testing.T) {
	for _, m := range []Model{ResNet50(), TResNetM(), CosmoFlow(), DeepCAM()} {
		t1a, t5a := m.Accuracy(float64(m.Data.TrainFiles))       // 1 epoch
		t1b, t5b := m.Accuracy(float64(m.Data.TrainFiles) * 100) // 100 epochs
		if !(t1b > t1a && t5b > t5a) {
			t.Fatalf("%s: accuracy not increasing", m.Name)
		}
		if t1b > m.Top1Max || t5b > m.Top5Max {
			t.Fatalf("%s: accuracy exceeds asymptote", m.Name)
		}
		if t1b < 0.99*m.Top1Max {
			t.Fatalf("%s: 100 epochs should approach the asymptote (%f vs %f)", m.Name, t1b, m.Top1Max)
		}
	}
}

func TestComputeAndAllreduceScaling(t *testing.T) {
	m := ResNet50()
	if m.ComputeTime(64, 3) >= m.ComputeTime(64, 1) {
		t.Fatal("more GPUs must be faster")
	}
	if m.ComputeTime(128, 3) <= m.ComputeTime(64, 3) {
		t.Fatal("bigger batch must take longer")
	}
	if m.AllreduceTime(1) != 0 {
		t.Fatal("single rank needs no allreduce")
	}
	if m.AllreduceTime(2048) <= m.AllreduceTime(2) {
		t.Fatal("allreduce must grow with world (latency term)")
	}
	// Allreduce transfer term saturates near 2x payload / ring bandwidth.
	if m.AllreduceTime(4096) > 10*m.AllreduceTime(4) {
		t.Fatal("allreduce grows implausibly")
	}
	if CosmoFlow().AllreduceTime(512) >= ResNet50().AllreduceTime(512) {
		t.Fatal("51K-parameter cosmoflow must allreduce faster than resnet50")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Model: ResNet50()}.withDefaults()
	if cfg.Data.Name != "imagenet21k" {
		t.Fatalf("default dataset = %s", cfg.Data.Name)
	}
	if cfg.ProcsPerNode != 2 || cfg.GPUsPerProc != 3 {
		t.Fatalf("defaults = %d procs, %d gpus", cfg.ProcsPerNode, cfg.GPUsPerProc)
	}
}

// The Fig. 12 claim: batch size barely moves training time (per-iteration
// compute scales with the batch, so epoch compute is constant; only
// per-iteration fixed costs change).
func TestBatchSizeNearlyNeutral(t *testing.T) {
	run := func(bs int) time.Duration {
		cfg := tinyConfig(512)
		// CosmoFlow's 51K parameters make the per-iteration allreduce
		// negligible, isolating the claim (with ResNet50's 100MB
		// gradients, tiny batches at tiny world sizes genuinely pay).
		cfg.Model = CosmoFlow()
		cfg.BatchSize = bs
		cfg.Epochs = 2
		eng := sim.NewEngine()
		cl := summit.NewCluster(eng, cfg.Nodes, cfg.Data.Namespace())
		res, err := Run(eng, cfg, cl.XFSFS())
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainTime
	}
	small, big := run(4), run(64)
	ratio := float64(small) / float64(big)
	if ratio < 0.7 || ratio > 1.5 {
		t.Fatalf("batch size moved training time by %2.fx (4: %v, 64: %v)", ratio, small, big)
	}
}

// Strong scaling on the XFS-on-NVMe upper bound: doubling nodes with a
// fixed dataset roughly halves epoch time (until fixed costs dominate).
func TestStrongScalingOnXFS(t *testing.T) {
	run := func(nodes int) time.Duration {
		cfg := tinyConfig(2048)
		cfg.Nodes = nodes
		cfg.Epochs = 1
		cfg.BatchSize = 8
		eng := sim.NewEngine()
		cl := summit.NewCluster(eng, nodes, cfg.Data.Namespace())
		res, err := Run(eng, cfg, cl.XFSFS())
		if err != nil {
			t.Fatal(err)
		}
		return res.TrainTime
	}
	t2, t8 := run(2), run(8)
	speedup := float64(t2) / float64(t8)
	if speedup < 2.5 {
		t.Fatalf("4x nodes gave only %.2fx speedup (%v -> %v)", speedup, t2, t8)
	}
}

// I/O stall accounting: on a slow FS the recorded IOTime must dominate;
// on a fast one, compute must.
func TestStallAccounting(t *testing.T) {
	cfg := tinyConfig(512)
	cfg.Nodes = 8
	cfg.Epochs = 1
	gpfsEng := sim.NewEngine()
	gpfsCl := summit.NewCluster(gpfsEng, cfg.Nodes, cfg.Data.Namespace())
	gpfsCl.RegisterJob(4096) // heavy token pressure: slow metadata
	gpfsRes, err := Run(gpfsEng, cfg, gpfsCl.GPFSFS())
	if err != nil {
		t.Fatal(err)
	}
	xfsEng := sim.NewEngine()
	xfsCl := summit.NewCluster(xfsEng, cfg.Nodes, cfg.Data.Namespace())
	xfsRes, err := Run(xfsEng, cfg, xfsCl.XFSFS())
	if err != nil {
		t.Fatal(err)
	}
	if gpfsRes.IOTime <= xfsRes.IOTime {
		t.Fatalf("GPFS stall (%v) should exceed XFS stall (%v)", gpfsRes.IOTime, xfsRes.IOTime)
	}
	if xfsRes.ComputeTime <= xfsRes.IOTime {
		t.Fatalf("on XFS compute (%v) should dominate I/O (%v)", xfsRes.ComputeTime, xfsRes.IOTime)
	}
}

// Epoch 1 on HVAC is cold (reads GPFS through the movers); later epochs
// come from the distributed cache and are faster — the Fig. 11 effect.
func TestHVACWarmEpochsFaster(t *testing.T) {
	cfg := tinyConfig(256)
	cfg.Epochs = 4
	eng := sim.NewEngine()
	cl := summit.NewCluster(eng, cfg.Nodes, cfg.Data.Namespace())
	cl.RegisterJob(cfg.Nodes * cfg.ProcsPerNode)
	job := cl.StartHVAC(summit.HVACOptions{InstancesPerNode: 1})
	res, err := Run(eng, cfg, job.FS())
	if err != nil {
		t.Fatal(err)
	}
	cold := res.EpochTimes[0]
	for e, warm := range res.EpochTimes[1:] {
		if warm >= cold {
			t.Fatalf("warm epoch %d (%v) not faster than cold epoch (%v)", e+2, warm, cold)
		}
	}
	st := job.TotalStats()
	if st.Misses != 256 {
		t.Fatalf("misses = %d, want 256 (each file copied once)", st.Misses)
	}
}
