package summit

import (
	"fmt"
	"testing"

	"hvac/internal/sim"
	"hvac/internal/vfs"
)

func smallNS(files int, size int64) *vfs.Namespace {
	ns := vfs.NewNamespace()
	for i := 0; i < files; i++ {
		ns.Add(fmt.Sprintf("/gpfs/d/f%05d", i), size)
	}
	return ns
}

// cachedFiles sums the resident file count over the job's servers.
func cachedFiles(job *HVACJob) int {
	total := 0
	for _, s := range job.Servers {
		total += s.CachedFiles()
	}
	return total
}

func TestTableI(t *testing.T) {
	spec := TableI()
	if spec.CPUSockets != 2 || spec.CoresPerCPU != 22 || spec.CPUClockGHz != 3.07 {
		t.Fatalf("CPU spec = %+v (Table I: 2x IBM POWER9 22 cores 3.07GHz)", spec)
	}
	if spec.GPUs != 6 {
		t.Fatalf("GPUs = %d, want 6 V100", spec.GPUs)
	}
	if spec.MemoryGB != 512 {
		t.Fatalf("memory = %d, want 512 GB", spec.MemoryGB)
	}
	if spec.NVMe.Capacity != 1600e9 {
		t.Fatalf("NVMe = %d, want 1.6 TB", spec.NVMe.Capacity)
	}
	if spec.Interconnect.LinkBandwidth != 25e9 {
		t.Fatal("interconnect should be dual-rail EDR (25 GB/s)")
	}
}

func TestClusterBounds(t *testing.T) {
	eng := sim.NewEngine()
	for _, bad := range []int{0, -1, MaxNodes + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCluster(%d) did not panic", bad)
				}
			}()
			NewCluster(eng, bad, smallNS(1, 1))
		}()
	}
	c := NewCluster(eng, 4, smallNS(1, 1))
	if c.Nodes() != 4 || len(c.Devices) != 4 {
		t.Fatalf("nodes/devices = %d/%d", c.Nodes(), len(c.Devices))
	}
}

func TestFSProvidersMemoisePerNode(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, 2, smallNS(4, 1024))
	g := c.GPFSFS()
	if g(0, 0) != g(0, 1) {
		t.Fatal("GPFS mounts should be shared per node")
	}
	if g(0, 0) == g(1, 0) {
		t.Fatal("GPFS mounts should differ across nodes")
	}
	x := c.XFSFS()
	if x(1, 0) != x(1, 1) {
		t.Fatal("XFS mounts should be shared per node")
	}
}

func TestXFSStagingFeasibilityCheck(t *testing.T) {
	eng := sim.NewEngine()
	big := vfs.NewNamespace()
	big.Add("/gpfs/huge", 2e12) // exceeds the 1.6 TB NVMe
	c := NewCluster(eng, 1, big)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized staging should panic")
		}
	}()
	c.XFSFS()
}

func TestStartHVACInstanceLayout(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCluster(eng, 3, smallNS(8, 1024))
	job := c.StartHVAC(HVACOptions{InstancesPerNode: 4})
	if len(job.Servers) != 12 {
		t.Fatalf("servers = %d, want 3x4", len(job.Servers))
	}
	perNode := map[int]int{}
	for _, s := range job.Servers {
		perNode[int(s.Node())]++
	}
	for n := 0; n < 3; n++ {
		if perNode[n] != 4 {
			t.Fatalf("node %d has %d instances", n, perNode[n])
		}
	}
	if job.Client(1) != job.Client(1) {
		t.Fatal("clients should be memoised")
	}
}

func TestPrewarmStagesWholeDataset(t *testing.T) {
	eng := sim.NewEngine()
	ns := smallNS(40, 128<<10)
	c := NewCluster(eng, 4, ns)
	job := c.StartHVAC(HVACOptions{InstancesPerNode: 2})
	d, err := job.Prewarm()
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("prewarm consumed no virtual time")
	}
	if total := cachedFiles(job); total != 40 {
		t.Fatalf("prewarmed %d files, want 40", total)
	}
	if st := job.TotalStats(); st.Misses != 40 {
		t.Fatalf("misses = %d, want 40 (each file staged once)", st.Misses)
	}
	// Training after prewarm sees only hits.
	var hits int64
	for n := 0; n < 4; n++ {
		fs := job.FS()(n, 0)
		eng.Spawn("r", func(p *sim.Proc) {
			for _, path := range ns.Paths() {
				vfs.ReadFile(p, fs, path)
			}
		})
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	hits = job.TotalStats().Hits
	if hits != 160 {
		t.Fatalf("hits = %d, want 160 (4 nodes x 40 warm reads)", hits)
	}
}

func TestHVACEndToEndOnCluster(t *testing.T) {
	eng := sim.NewEngine()
	ns := smallNS(32, 64<<10)
	c := NewCluster(eng, 4, ns)
	c.RegisterJob(8)
	job := c.StartHVAC(HVACOptions{InstancesPerNode: 2})
	for n := 0; n < 4; n++ {
		fs := job.FS()(n, 0)
		eng.Spawn("reader", func(p *sim.Proc) {
			for _, path := range ns.Paths() {
				if _, err := vfs.ReadFile(p, fs, path); err != nil {
					t.Errorf("read %s: %v", path, err)
				}
			}
		})
	}
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := job.TotalStats()
	if st.Misses != 32 {
		t.Fatalf("misses = %d, want 32", st.Misses)
	}
	if total := cachedFiles(job); total != 32 {
		t.Fatalf("distributed files = %d, want 32", total)
	}
}
