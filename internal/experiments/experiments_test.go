package experiments

import (
	"strings"
	"testing"

	"hvac/internal/dataset"
	"hvac/internal/place"
	"hvac/internal/train"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab1", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "bandwidth",
		"ablation-placement", "ablation-eviction", "ablation-instances", "ablation-replication",
		"ablation-prefetch", "ablation-segments",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if all[i].Run == nil || all[i].Title == "" {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("fig8"); !ok {
		t.Fatal("ByID(fig8) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) succeeded")
	}
}

func TestSystemsMatchPaper(t *testing.T) {
	sys := Systems()
	if len(sys) != 5 {
		t.Fatalf("systems = %d, want 5 (§IV-A3)", len(sys))
	}
	if sys[0].Name != "gpfs" || sys[4].Name != "xfs-nvme" {
		t.Fatalf("system order wrong: %v", sys)
	}
	for i, inst := range []int{1, 2, 4} {
		if sys[i+1].Instances != inst {
			t.Fatalf("hvac variant %d has %d instances", i+1, sys[i+1].Instances)
		}
	}
}

func TestAppsCoverPaperModels(t *testing.T) {
	names := map[string]bool{}
	for _, a := range apps() {
		names[a.model.Name] = true
		if a.scaled <= 0 || a.scaled > a.full {
			t.Fatalf("%s: scaled factor %f should be below full factor %f", a.model.Name, a.scaled, a.full)
		}
	}
	for _, want := range []string{"resnet50", "tresnet_m", "cosmoflow", "deepcam"} {
		if !names[want] {
			t.Fatalf("missing application %s", want)
		}
	}
}

func TestTable1Content(t *testing.T) {
	tabs := Table1(Options{})
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	out := tabs[0].String()
	for _, want := range []string{"POWER9", "V100", "512 GB", "1.6 TB", "EDR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestAggregateBandwidthTable(t *testing.T) {
	out := AggregateBandwidth(Options{})[0].String()
	if !strings.Contains(out, "4096") || !strings.Contains(out, "22.5") {
		t.Fatalf("§II-C numbers missing:\n%s", out)
	}
}

// The Fig. 15 table's claims are TestResultsShape/fig15's; this pins the
// placement balance beneath it at a second file count.
func TestFig15Balance(t *testing.T) {
	counts := placementCounts(place.ModHash{}, 100000, 512)
	cv, lo, hi := cdfSummary(counts)
	if cv > 0.1 {
		t.Fatalf("placement cv = %f at 512 servers", cv)
	}
	if lo < 0.7 || hi > 1.3 {
		t.Fatalf("min/max ratio = %f/%f", lo, hi)
	}
}

func TestCdfSummaryEdge(t *testing.T) {
	cv, lo, hi := cdfSummary([]int{0, 0, 0})
	if cv != 0 || lo != 0 || hi != 0 {
		t.Fatal("all-zero counts should give zeros")
	}
	cv, lo, hi = cdfSummary([]int{10, 10, 10})
	if cv != 0 || lo != 1 || hi != 1 {
		t.Fatalf("uniform counts: cv=%f lo=%f hi=%f", cv, lo, hi)
	}
}

func TestAblationPlacementTables(t *testing.T) {
	tabs := AblationPlacement(Options{})
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	out := tabs[1].String()
	// modhash must move far more files than rendezvous on growth.
	if !strings.Contains(out, "modhash") || !strings.Contains(out, "rendezvous") {
		t.Fatalf("missing policies:\n%s", out)
	}
}

// A miniature end-to-end check of the Fig. 8 machinery: GPFS must lose to
// XFS at scale and HVAC must land in between, on a small configuration.
func TestRunTrainingOrdering(t *testing.T) {
	small := dataset.Spec{
		Name: "mini", TrainFiles: 4096, MeanFileSize: 96 << 10,
		PathPrefix: "/gpfs/mini",
	}
	cfg := train.Config{
		Model: train.ResNet50(), Data: small,
		Nodes: 256, BatchSize: 16, Epochs: 3, Seed: 5,
	}
	opt := Options{Seed: 5}
	gpfs := runTraining(opt, System{Name: "gpfs"}, cfg).TrainTime
	hvac := runTraining(opt, System{Name: "hvac(4x1)", Instances: 4}, cfg).TrainTime
	xfs := runTraining(opt, System{Name: "xfs-nvme", Instances: -1}, cfg).TrainTime
	if !(xfs < hvac && hvac < gpfs) {
		t.Fatalf("ordering violated: xfs=%v hvac=%v gpfs=%v", xfs, hvac, gpfs)
	}
}
