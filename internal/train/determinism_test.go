package train

import (
	"testing"

	"hvac/internal/sim"
	"hvac/internal/summit"
)

// deterministicRun executes one seeded Summit-scale HVAC training job and
// returns everything observable about it: the training result, the
// aggregate server stats, and the engine's event count (the replay
// fingerprint — two runs are identical exactly when their event counts
// and final outputs agree).
func deterministicRun(t *testing.T) (*Result, summit.SimServerStats, uint64) {
	t.Helper()
	cfg := Config{
		Model:        ResNet50(),
		Data:         tinySpec(384, 64<<10),
		Nodes:        16,
		ProcsPerNode: 2,
		BatchSize:    8,
		Epochs:       2,
		Seed:         42,
	}
	eng := sim.NewEngine()
	cl := summit.NewCluster(eng, cfg.Nodes, cfg.Data.Namespace())
	cl.RegisterJob(cfg.Nodes * cfg.ProcsPerNode)
	job := cl.StartHVAC(summit.HVACOptions{
		InstancesPerNode: 2,
		EvictionSeed:     99,
		// Far smaller than the dataset share per instance, so the random
		// eviction policy runs constantly — the hardest part of the model
		// to keep deterministic.
		CapacityPerInstance: 4 * 64 << 10,
	})
	res, err := Run(eng, cfg, job.FS())
	if err != nil {
		t.Fatal(err)
	}
	return res, job.TotalStats(), eng.Events()
}

// TestSimDeterminismRegression is the regression gate for the guarantee
// the simdeterminism analyzer enforces statically: the same seeded
// Summit-scale configuration must replay to the bit. It runs the model
// twice and demands identical event counts, timings, and server counters.
// Any wall-clock read, global RNG use, or map-iteration-order dependence
// that sneaks into the simulation packages shows up here as a diff.
func TestSimDeterminismRegression(t *testing.T) {
	res1, st1, ev1 := deterministicRun(t)
	res2, st2, ev2 := deterministicRun(t)

	if ev1 != ev2 {
		t.Errorf("event counts differ: %d vs %d", ev1, ev2)
	}
	if res1.TrainTime != res2.TrainTime {
		t.Errorf("train times differ: %v vs %v", res1.TrainTime, res2.TrainTime)
	}
	if res1.IOTime != res2.IOTime {
		t.Errorf("I/O stall times differ: %v vs %v", res1.IOTime, res2.IOTime)
	}
	if res1.ComputeTime != res2.ComputeTime {
		t.Errorf("compute times differ: %v vs %v", res1.ComputeTime, res2.ComputeTime)
	}
	if res1.FilesRead != res2.FilesRead {
		t.Errorf("files read differ: %d vs %d", res1.FilesRead, res2.FilesRead)
	}
	if len(res1.EpochTimes) != len(res2.EpochTimes) {
		t.Fatalf("epoch counts differ: %d vs %d", len(res1.EpochTimes), len(res2.EpochTimes))
	}
	for e := range res1.EpochTimes {
		if res1.EpochTimes[e] != res2.EpochTimes[e] {
			t.Errorf("epoch %d times differ: %v vs %v", e+1, res1.EpochTimes[e], res2.EpochTimes[e])
		}
	}
	if st1 != st2 {
		t.Errorf("server stats differ:\n  run 1: %+v\n  run 2: %+v", st1, st2)
	}

	// The run must actually exercise the stochastic machinery it claims
	// to pin down: cache churn and a non-trivial event volume.
	if st1.Evictions == 0 {
		t.Error("no evictions: the test is not covering the random eviction policy")
	}
	if ev1 == 0 {
		t.Error("no events scheduled")
	}
}
