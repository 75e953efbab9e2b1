package experiments

import (
	"fmt"

	"hvac/internal/metrics"
	"hvac/internal/place"
	"hvac/internal/summit"
)

// Table1 prints the Table I node specification the simulation is built on.
func Table1(opt Options) []*metrics.Table {
	spec := summit.TableI()
	t := metrics.NewTable("Table I: Summit compute-node specification", "attribute", "value")
	t.AddRow("CPU", fmt.Sprintf("%d x IBM POWER9 %dCores %.2fGHz", spec.CPUSockets, spec.CoresPerCPU, spec.CPUClockGHz))
	t.AddRow("GPU", fmt.Sprintf("%d x NVIDIA Tesla Volta (V100)", spec.GPUs))
	t.AddRow("Memory Capacity", fmt.Sprintf("%d GB DDR4", spec.MemoryGB))
	t.AddRow("Node-local Storage", fmt.Sprintf("%.1f TB NVMe SSD with XFS", float64(spec.NVMe.Capacity)/1e12))
	t.AddRow("Network Interconnect", fmt.Sprintf("Dual-rail Mellanox EDR InfiniBand (%.0f GB/s)", spec.Interconnect.LinkBandwidth/1e9))
	return []*metrics.Table{t}
}

// AggregateBandwidth reproduces the §II-C headline: node-local NVMe
// aggregates to ~22.5 TB/s at 4,096 nodes against GPFS's 2.5 TB/s.
func AggregateBandwidth(opt Options) []*metrics.Table {
	spec := summit.TableI()
	t := metrics.NewTable("Aggregate read bandwidth (§II-C)", "nodes", "nvme TB/s", "gpfs TB/s", "ratio")
	for _, nodes := range []int{512, 1024, 2048, 4096} {
		nvme := spec.NVMe.ReadBandwidth * float64(nodes) / 1e12
		gpfs := 2.5
		t.AddFloats(fmt.Sprint(nodes), 1, nvme, gpfs, nvme/gpfs)
	}
	return []*metrics.Table{t}
}

// Fig15 regenerates the load-distribution study: the hash places the
// ImageNet21K files nearly uniformly over the allocation's servers, with
// relative deviation shrinking as servers grow — and a visible deviation
// below 128 nodes, as the paper observes.
func Fig15(opt Options) []*metrics.Table {
	files := 200_000
	nodeCounts := []int{32, 64, 128, 256, 512, 1024}
	if opt.Full {
		files = 2_000_000
	}
	t := metrics.NewTable(
		fmt.Sprintf("Fig. 15: per-server file distribution (%d ImageNet-style files, modhash)", files),
		"nodes", "mean files", "cv", "min/mean", "max/mean")
	pol := place.ModHash{}
	for _, n := range nodeCounts {
		counts := placementCounts(pol, files, n)
		cv, lo, hi := cdfSummary(counts)
		t.AddFloats(fmt.Sprint(n), 4, float64(files)/float64(n), cv, lo, hi)
		opt.progress("fig15 nodes=%d cv=%.4f", n, cv)
	}
	return []*metrics.Table{t}
}

// AblationPlacement compares the paper's modulo hash against rendezvous
// placement on balance and on reshuffle cost when the allocation grows by
// one node.
func AblationPlacement(opt Options) []*metrics.Table {
	files := 120_000
	if opt.Full {
		files = 1_200_000
	}
	policies := []place.Policy{place.ModHash{}, place.Rendezvous{}}
	balance := metrics.NewTable(
		fmt.Sprintf("Ablation: placement balance (%d files)", files),
		"policy", "cv@64", "cv@256", "cv@1024")
	for _, pol := range policies {
		var cvs []float64
		for _, n := range []int{64, 256, 1024} {
			cv, _, _ := cdfSummary(placementCounts(pol, files, n))
			cvs = append(cvs, cv)
		}
		balance.AddFloats(pol.Name(), 4, cvs...)
	}
	reshuffle := metrics.NewTable(
		"Ablation: fraction of files moved when allocation grows 256 -> 257",
		"policy", "moved")
	for _, pol := range policies {
		moved := 0
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/gpfs/alpine/imagenet21k/train/%07d.rec", i)
			if pol.Place(p, 256) != pol.Place(p, 257) {
				moved++
			}
		}
		reshuffle.AddFloats(pol.Name(), 4, float64(moved)/float64(files))
	}
	return []*metrics.Table{balance, reshuffle}
}
