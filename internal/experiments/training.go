package experiments

import (
	"fmt"
	"sync"

	"hvac/internal/metrics"
	"hvac/internal/sim"
	"hvac/internal/summit"
	"hvac/internal/train"
	"hvac/internal/vfs"
)

func fig8Nodes(opt Options) []int {
	if opt.Full {
		return []int{32, 128, 512, 1024}
	}
	return []int{32, 256, 1024}
}

// fig8Data runs the Fig. 8 sweep once per Options and memoises it so Fig. 8
// and Fig. 9 (which normalises the same data) share the work.
type fig8Key struct {
	full bool
	seed uint64
}

var (
	fig8Mu    sync.Mutex
	fig8Cache = map[fig8Key]map[string]map[int]map[string]float64{}
)

// fig8Results returns trainTime[model][nodes][system] in seconds.
func fig8Results(opt Options) map[string]map[int]map[string]float64 {
	key := fig8Key{full: opt.Full, seed: opt.Seed}
	fig8Mu.Lock()
	defer fig8Mu.Unlock()
	if r, ok := fig8Cache[key]; ok {
		return r
	}
	out := map[string]map[int]map[string]float64{}
	for _, a := range apps() {
		epochs := a.epochsShort
		if opt.Full {
			epochs = a.epochsFull
		}
		byNodes := map[int]map[string]float64{}
		for _, nodes := range fig8Nodes(opt) {
			bySys := map[string]float64{}
			for _, sys := range Systems() {
				cfg := train.Config{
					Model:     a.model,
					Data:      a.data(opt),
					Nodes:     nodes,
					BatchSize: a.batch,
					Epochs:    epochs,
					Seed:      opt.Seed,
				}
				res := runTraining(opt, sys, cfg)
				bySys[sys.Name] = res.TrainTime.Seconds()
				opt.progress("fig8 %s nodes=%d %s: %.1fs", a.model.Name, nodes, sys.Name, res.TrainTime.Seconds())
			}
			byNodes[nodes] = bySys
		}
		out[a.model.Name] = byNodes
	}
	fig8Cache[key] = out
	return out
}

// Fig8 regenerates the training-time-vs-nodes panels for the four
// applications and five systems.
func Fig8(opt Options) []*metrics.Table {
	data := fig8Results(opt)
	var tables []*metrics.Table
	for _, a := range apps() {
		epochs := a.epochsShort
		if opt.Full {
			epochs = a.epochsFull
		}
		t := metrics.NewTable(
			fmt.Sprintf("Fig. 8: %s on %s [BS=%d, Eps=%d, nProcs/node=2] (minutes)",
				a.model.Name, a.data(opt).Name, a.batch, epochs),
			"nodes", "gpfs", "hvac(1x1)", "hvac(2x1)", "hvac(4x1)", "xfs-nvme")
		for _, nodes := range fig8Nodes(opt) {
			row := data[a.model.Name][nodes]
			t.AddFloats(fmt.Sprint(nodes), 3,
				minutes(row["gpfs"]), minutes(row["hvac(1x1)"]), minutes(row["hvac(2x1)"]),
				minutes(row["hvac(4x1)"]), minutes(row["xfs-nvme"]))
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig9 normalises the Fig. 8 data: (a) improvement over GPFS, (b) overhead
// against the XFS-on-NVMe upper bound. Paper headline: ~25% average gain
// over GPFS; 25%/14%/9% overhead ladder for 1x1/2x1/4x1.
func Fig9(opt Options) []*metrics.Table {
	data := fig8Results(opt)
	variants := []string{"hvac(1x1)", "hvac(2x1)", "hvac(4x1)"}

	gain := metrics.NewTable("Fig. 9a: improvement over GPFS, 1 - t/t_gpfs (all apps averaged)",
		"nodes", "hvac(1x1)", "hvac(2x1)", "hvac(4x1)")
	over := metrics.NewTable("Fig. 9b: overhead vs XFS-on-NVMe, t/t_xfs - 1 (all apps averaged)",
		"nodes", "hvac(1x1)", "hvac(2x1)", "hvac(4x1)")
	sumGain := map[string]*metrics.Sample{}
	sumOver := map[string]*metrics.Sample{}
	for _, v := range variants {
		sumGain[v] = &metrics.Sample{}
		sumOver[v] = &metrics.Sample{}
	}
	for _, nodes := range fig8Nodes(opt) {
		var gRow, oRow []float64
		for _, v := range variants {
			var g, o metrics.Sample
			for _, a := range apps() {
				row := data[a.model.Name][nodes]
				g.Add(1 - row[v]/row["gpfs"])
				o.Add(row[v]/row["xfs-nvme"] - 1)
			}
			gRow = append(gRow, g.Mean())
			oRow = append(oRow, o.Mean())
			sumGain[v].Add(g.Mean())
			sumOver[v].Add(o.Mean())
		}
		gain.AddFloats(fmt.Sprint(nodes), 3, gRow...)
		over.AddFloats(fmt.Sprint(nodes), 3, oRow...)
	}
	gain.AddFloats("mean", 3, sumGain["hvac(1x1)"].Mean(), sumGain["hvac(2x1)"].Mean(), sumGain["hvac(4x1)"].Mean())
	over.AddFloats("mean", 3, sumOver["hvac(1x1)"].Mean(), sumOver["hvac(2x1)"].Mean(), sumOver["hvac(4x1)"].Mean())
	return []*metrics.Table{gain, over}
}

// Fig10 regenerates the epoch-count sweep for ResNet50 and CosmoFlow at
// 512 nodes.
func Fig10(opt Options) []*metrics.Table {
	epochsList := []int{2, 4, 8}
	if opt.Full {
		epochsList = []int{2, 4, 8, 16, 32}
	}
	nodes := 512
	var tables []*metrics.Table
	for _, a := range apps() {
		if a.model.Name != "resnet50" && a.model.Name != "cosmoflow" {
			continue
		}
		t := metrics.NewTable(
			fmt.Sprintf("Fig. 10: %s [BS=%d, nNodes=%d] training time vs epochs (minutes)", a.model.Name, a.batch, nodes),
			"epochs", "gpfs", "hvac(1x1)", "hvac(2x1)", "hvac(4x1)", "xfs-nvme")
		for _, eps := range epochsList {
			row := map[string]float64{}
			for _, sys := range Systems() {
				cfg := train.Config{
					Model: a.model, Data: a.data(opt), Nodes: nodes,
					BatchSize: a.batch, Epochs: eps, Seed: opt.Seed,
				}
				row[sys.Name] = runTraining(opt, sys, cfg).TrainTime.Seconds()
			}
			t.AddFloats(fmt.Sprint(eps), 3,
				minutes(row["gpfs"]), minutes(row["hvac(1x1)"]), minutes(row["hvac(2x1)"]),
				minutes(row["hvac(4x1)"]), minutes(row["xfs-nvme"]))
			opt.progress("fig10 %s eps=%d done", a.model.Name, eps)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig11 regenerates the per-epoch analysis [BS=4, Eps=10, nNodes=512]:
// first epoch, best random (non-first) epoch, and average epoch time. The
// paper's findings: epoch 1 is GPFS-bound for every variant; cached
// epochs run ~3x faster than GPFS on HVAC(4x1).
func Fig11(opt Options) []*metrics.Table {
	a := apps()[0] // ResNet50
	nodes := 512
	t := metrics.NewTable(
		fmt.Sprintf("Fig. 11: per-epoch training time [BS=4, Eps=10, nNodes=%d] (seconds)", nodes),
		"system", "epoch-1", "R_epoch", "avg_epoch")
	for _, sys := range Systems() {
		cfg := train.Config{
			Model: a.model, Data: a.data(opt), Nodes: nodes,
			BatchSize: 4, Epochs: 10, Seed: opt.Seed,
		}
		res := runTraining(opt, sys, cfg)
		first := res.EpochTimes[0].Seconds()
		best := res.EpochTimes[1].Seconds()
		var sum float64
		for _, e := range res.EpochTimes {
			sum += e.Seconds()
		}
		for _, e := range res.EpochTimes[1:] {
			if s := e.Seconds(); s < best {
				best = s
			}
		}
		t.AddFloats(sys.Name, 3, first, best, sum/float64(len(res.EpochTimes)))
		opt.progress("fig11 %s done", sys.Name)
	}
	return []*metrics.Table{t}
}

// Fig12 regenerates the batch-size sweep for TResNet_M and DeepCAM at 512
// nodes. The paper's conclusion: batch size barely moves training time on
// any of the systems.
func Fig12(opt Options) []*metrics.Table {
	batches := []int{4, 16, 64, 128}
	nodes := 512
	epochs := 2
	if opt.Full {
		epochs = 10
	}
	var tables []*metrics.Table
	for _, a := range apps() {
		if a.model.Name != "tresnet_m" && a.model.Name != "deepcam" {
			continue
		}
		t := metrics.NewTable(
			fmt.Sprintf("Fig. 12: %s [Eps=%d, nNodes=%d] training time vs batch size (minutes)", a.model.Name, epochs, nodes),
			"batch", "gpfs", "hvac(1x1)", "hvac(2x1)", "hvac(4x1)", "xfs-nvme")
		for _, bs := range batches {
			row := map[string]float64{}
			for _, sys := range Systems() {
				cfg := train.Config{
					Model: a.model, Data: a.data(opt), Nodes: nodes,
					BatchSize: bs, Epochs: epochs, Seed: opt.Seed,
				}
				row[sys.Name] = runTraining(opt, sys, cfg).TrainTime.Seconds()
			}
			t.AddFloats(fmt.Sprint(bs), 3,
				minutes(row["gpfs"]), minutes(row["hvac(1x1)"]), minutes(row["hvac(2x1)"]),
				minutes(row["hvac(4x1)"]), minutes(row["xfs-nvme"]))
			opt.progress("fig12 %s bs=%d done", a.model.Name, bs)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig13 regenerates the cache-locality study on HVAC(1x1): the fraction of
// the dataset resident on the local node versus remote nodes is forced,
// and training time barely moves — Mercury-over-IB makes remote NVMe
// nearly as close as local NVMe.
func Fig13(opt Options) []*metrics.Table {
	a := apps()[0] // ResNet50, BS=80 per the figure caption
	nodes := 64
	if opt.Full {
		nodes = 512
	}
	splits := []int{100, 75, 50, 25, 0} // L% local
	t := metrics.NewTable(
		fmt.Sprintf("Fig. 13: HVAC(1x1) cache locality [BS=80, nNodes=%d] (minutes)", nodes),
		"L%/R%", "train time", "local opens", "remote opens")
	for _, local := range splits {
		eng := sim.NewEngine()
		data := a.data(opt)
		ns := vfs.NewNamespace()
		data.Build(ns, false)
		cluster := summit.NewCluster(eng, nodes, ns)
		cluster.RegisterJob(nodes * 2)
		job := cluster.StartHVAC(summit.HVACOptions{InstancesPerNode: 1, EvictionSeed: opt.Seed})
		// Force the local/remote split per client: a file is "local" when
		// its hash bucket falls below L, else it homes on a remote node.
		fsFor := func(node, proc int) vfs.FS {
			cl := job.Client(node)
			cl.SetPlacement(func(path string) int {
				h := placementHash(path)
				if int(h%100) < local {
					return node
				}
				other := int(h/100) % (nodes - 1)
				if other >= node {
					other++
				}
				return other
			})
			return cl
		}
		cfg := train.Config{
			Model: a.model, Data: data, Nodes: nodes,
			BatchSize: 80, Epochs: 3, Seed: opt.Seed,
		}
		res, err := train.Run(eng, cfg, fsFor)
		if err != nil {
			panic(err)
		}
		var localOpens, remoteOpens int64
		for n := 0; n < nodes; n++ {
			st := job.Client(n).Stats()
			localOpens += st.LocalOpens
			remoteOpens += st.RemoteOpens
		}
		t.AddRow(fmt.Sprintf("%d/%d", local, 100-local),
			fmt.Sprintf("%.3f", minutes(res.TrainTime.Seconds())),
			fmt.Sprint(localOpens), fmt.Sprint(remoteOpens))
		opt.progress("fig13 L=%d done", local)
	}
	return []*metrics.Table{t}
}

func placementHash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Fig14 regenerates the accuracy study: ResNet50 trained through GPFS and
// through HVAC with the same seed reaches identical top-1/top-5 accuracy
// at every iteration (HVAC does not perturb the shuffle), and HVAC reaches
// each accuracy milestone earlier in wall-clock time.
func Fig14(opt Options) []*metrics.Table {
	a := apps()[0]
	nodes := 64
	epochs := 6
	if opt.Full {
		nodes = 512
		epochs = 10
	}
	run := func(sys System) *train.Result {
		cfg := train.Config{
			Model: a.model, Data: a.data(opt), Nodes: nodes,
			BatchSize: a.batch, Epochs: epochs, Seed: opt.Seed,
			AccuracyEveryIters: 2,
		}
		return runTraining(opt, sys, cfg)
	}
	gp := run(System{Name: "gpfs"})
	hv := run(System{Name: "hvac(4x1)", Instances: 4})

	curve := metrics.NewTable(
		fmt.Sprintf("Fig. 14: ResNet50 accuracy vs iterations [nNodes=%d, Eps=%d]", nodes, epochs),
		"iteration", "gpfs top1", "hvac top1", "gpfs top5", "hvac top5", "delta")
	step := len(gp.Accuracy) / 8
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(gp.Accuracy) && i < len(hv.Accuracy); i += step {
		g, h := gp.Accuracy[i], hv.Accuracy[i]
		delta := g.Top1 - h.Top1
		if delta < 0 {
			delta = -delta
		}
		curve.AddFloats(fmt.Sprint(g.Iteration), 4, g.Top1, h.Top1, g.Top5, h.Top5, delta)
	}

	// Milestones are fractions of the accuracy actually reached in this
	// (scaled) run, so the table is meaningful at any scale.
	final := 0.0
	if len(gp.Accuracy) > 0 {
		final = gp.Accuracy[len(gp.Accuracy)-1].Top1
	}
	milestones := metrics.NewTable(
		"Fig. 14 (wall clock): time to reach top-1 accuracy milestones (minutes)",
		"top1 >=", "gpfs", "hvac(4x1)")
	for _, frac := range []float64{0.25, 0.50, 0.75} {
		target := frac * final
		gt := timeToAccuracy(gp, target, epochs)
		ht := timeToAccuracy(hv, target, epochs)
		milestones.AddFloats(fmt.Sprintf("%.4f", target), 3, minutes(gt), minutes(ht))
	}
	return []*metrics.Table{curve, milestones}
}

// timeToAccuracy estimates when a run first reached the top-1 target, by
// mapping the accuracy curve's iteration to wall-clock via epoch times.
func timeToAccuracy(res *train.Result, target float64, epochs int) float64 {
	totalIters := 0
	if len(res.Accuracy) > 0 {
		totalIters = res.Accuracy[len(res.Accuracy)-1].Iteration
	}
	if totalIters == 0 {
		return 0
	}
	for _, pt := range res.Accuracy {
		if pt.Top1 >= target {
			// Interpolate wall time from cumulative epoch durations.
			frac := float64(pt.Iteration) / float64(totalIters)
			return res.TrainTime.Seconds() * frac
		}
	}
	return res.TrainTime.Seconds()
}
