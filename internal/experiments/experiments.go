// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated Summit substrate, plus the ablation
// studies called out in DESIGN.md. Each experiment produces
// metrics.Tables whose rows/series mirror what the paper plots.
//
// Two operating points exist: the default "scaled" mode shrinks datasets
// and epoch counts (factors recorded in each table's title) so the whole
// suite runs in minutes on a laptop, and Full mode uses paper-scale node
// counts and epochs with moderately scaled datasets. Scaling the dataset
// shortens epochs but does not move the contention mechanisms, which
// depend on request *rates* (procs x per-proc demand), so the shapes —
// who wins, roughly by how much, where GPFS saturates — are preserved.
package experiments

import (
	"fmt"
	"io"

	"hvac/internal/dataset"
	"hvac/internal/metrics"
	"hvac/internal/place"
	"hvac/internal/sim"
	"hvac/internal/summit"
	"hvac/internal/train"
	"hvac/internal/vfs"
)

// Options controls an experiment run.
type Options struct {
	// Full selects paper-scale node counts and epochs.
	Full bool
	// Seed drives all randomness; equal seeds replay exactly.
	Seed uint64
	// Progress, when non-nil, receives one line per completed
	// configuration.
	Progress io.Writer
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// Experiment is one reproducible artefact of the paper.
type Experiment struct {
	// ID is the registry key ("fig8", "tab1", "ablation-eviction", ...).
	ID string
	// Title describes the artefact.
	Title string
	// Run executes it and returns the regenerated tables.
	Run func(Options) []*metrics.Table
}

// All returns every experiment in paper order, ablations last.
func All() []Experiment {
	return []Experiment{
		{ID: "tab1", Title: "Table I: Summit compute-node specification", Run: Table1},
		{ID: "fig3", Title: "Fig. 3: MDTest 32KB open-read-close transactions/s", Run: Fig3},
		{ID: "fig4", Title: "Fig. 4: MDTest 8MB open-read-close transactions/s", Run: Fig4},
		{ID: "fig8", Title: "Fig. 8: training time vs nodes, four applications", Run: Fig8},
		{ID: "fig9", Title: "Fig. 9: gain vs GPFS and overhead vs XFS-on-NVMe", Run: Fig9},
		{ID: "fig10", Title: "Fig. 10: training time vs epochs", Run: Fig10},
		{ID: "fig11", Title: "Fig. 11: first/random/average epoch analysis", Run: Fig11},
		{ID: "fig12", Title: "Fig. 12: training time vs batch size", Run: Fig12},
		{ID: "fig13", Title: "Fig. 13: cache locality split (L%/R%)", Run: Fig13},
		{ID: "fig14", Title: "Fig. 14: ResNet50 accuracy, GPFS vs HVAC", Run: Fig14},
		{ID: "fig15", Title: "Fig. 15: per-server file distribution vs ideal CDF", Run: Fig15},
		{ID: "bandwidth", Title: "§II-C: aggregate NVMe vs GPFS bandwidth", Run: AggregateBandwidth},
		{ID: "ablation-placement", Title: "Ablation: placement policies (balance, reshuffle)", Run: AblationPlacement},
		{ID: "ablation-eviction", Title: "Ablation: eviction policies under cache pressure", Run: AblationEviction},
		{ID: "ablation-instances", Title: "Ablation: server instances per node", Run: AblationInstances},
		{ID: "ablation-replication", Title: "Ablation: replication factor and failover", Run: AblationReplication},
		{ID: "ablation-prefetch", Title: "Ablation: cache pre-population vs cold first epoch (§IV-C future work)", Run: AblationPrefetch},
		{ID: "ablation-segments", Title: "Ablation: segment-level caching under skewed file sizes (§III-E)", Run: AblationSegments},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// System identifies one of the compared deployments (§IV-A3).
type System struct {
	// Name is the reporting label.
	Name string
	// Instances is the HVAC i in i×1; 0 means not HVAC.
	Instances int
}

// Systems returns the paper's comparison set: GPFS, the three HVAC
// variants, and the XFS-on-NVMe upper bound.
func Systems() []System {
	return []System{
		{Name: "gpfs"},
		{Name: "hvac(1x1)", Instances: 1},
		{Name: "hvac(2x1)", Instances: 2},
		{Name: "hvac(4x1)", Instances: 4},
		{Name: "xfs-nvme", Instances: -1},
	}
}

// app pairs a model with the experiment's dataset scaling.
type app struct {
	model       train.Model
	scaled      float64 // dataset factor in scaled mode
	full        float64 // dataset factor in Full mode
	batch       int
	epochsShort int
	epochsFull  int
}

func apps() []app {
	return []app{
		{model: train.ResNet50(), scaled: 1.0 / 256, full: 1.0 / 64, batch: 80, epochsShort: 4, epochsFull: 10},
		{model: train.TResNetM(), scaled: 1.0 / 256, full: 1.0 / 64, batch: 80, epochsShort: 4, epochsFull: 10},
		{model: train.CosmoFlow(), scaled: 1.0 / 32, full: 1.0 / 8, batch: 32, epochsShort: 4, epochsFull: 10},
		{model: train.DeepCAM(), scaled: 1.0 / 8, full: 1.0 / 2, batch: 8, epochsShort: 4, epochsFull: 10},
	}
}

func (a app) data(opt Options) dataset.Spec {
	f := a.scaled
	if opt.Full {
		f = a.full
	}
	return a.model.Data.Scale(f)
}

// runTraining executes one (system, config) training run on a fresh
// simulated cluster and returns the result.
func runTraining(opt Options, sys System, cfg train.Config) *train.Result {
	eng := sim.NewEngine()
	ns := vfs.NewNamespace()
	data := cfg.Data
	data.Build(ns, false)
	cluster := summit.NewCluster(eng, cfg.Nodes, ns)
	procs := cfg.Nodes * max(cfg.ProcsPerNode, 2)
	cluster.RegisterJob(procs)

	var fsFor func(node, proc int) vfs.FS
	switch {
	case sys.Instances > 0:
		job := cluster.StartHVAC(summit.HVACOptions{
			InstancesPerNode: sys.Instances,
			EvictionSeed:     opt.Seed,
		})
		fsFor = job.FS()
	case sys.Instances < 0:
		fsFor = cluster.XFSFS()
	default:
		fsFor = cluster.GPFSFS()
	}
	res, err := train.Run(eng, cfg, fsFor)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s run failed: %v", sys.Name, err))
	}
	if res.ReadErrors > 0 {
		panic(fmt.Sprintf("experiments: %s run had %d read errors", sys.Name, res.ReadErrors))
	}
	return res
}

// minutes formats a duration column in minutes as the paper's Fig. 8 does.
func minutes(d float64) float64 { return d / 60 }

// cdfSummary condenses a per-server count distribution the way Fig. 15's
// CDF reads: coefficient of variation plus min/max relative to the mean.
func cdfSummary(counts []int) (cv, minRatio, maxRatio float64) {
	var s metrics.Sample
	for _, c := range counts {
		s.Add(float64(c))
	}
	mean := s.Mean()
	if mean == 0 {
		return 0, 0, 0
	}
	return s.CV(), s.Min() / mean, s.Max() / mean
}

// placementCounts places n synthetic ImageNet-style names over servers.
func placementCounts(pol place.Policy, files, servers int) []int {
	counts := make([]int, servers)
	for i := 0; i < files; i++ {
		counts[pol.Place(fmt.Sprintf("/gpfs/alpine/imagenet21k/train/%07d.rec", i), servers)]++
	}
	return counts
}
