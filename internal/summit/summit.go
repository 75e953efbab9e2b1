// Package summit assembles the simulated Summit supercomputer (§IV-A1):
// compute nodes per Table I, the Alpine GPFS file system, the dual-rail
// EDR InfiniBand fabric, and the three deployment modes the evaluation
// compares — GPFS, XFS-on-NVMe (pre-staged upper bound) and HVAC(i×1).
package summit

import (
	"fmt"

	"hvac/internal/cachestore"
	"hvac/internal/core"
	"hvac/internal/device"
	"hvac/internal/localfs"
	"hvac/internal/pfs"
	"hvac/internal/sim"
	"hvac/internal/simnet"
	"hvac/internal/vfs"
)

// MaxNodes is Summit's compute-node count.
const MaxNodes = 4608

// NodeSpec is the Table I compute-node specification.
type NodeSpec struct {
	CPUSockets   int
	CoresPerCPU  int
	CPUClockGHz  float64
	GPUs         int // NVIDIA Tesla V100
	MemoryGB     int // DDR4
	NVMe         device.Profile
	Interconnect simnet.Config // dual-rail Mellanox EDR InfiniBand
}

// TableI returns the published node specification.
func TableI() NodeSpec {
	return NodeSpec{
		CPUSockets:   2,
		CoresPerCPU:  22,
		CPUClockGHz:  3.07,
		GPUs:         6,
		MemoryGB:     512,
		NVMe:         device.SummitNVMe(),
		Interconnect: simnet.SummitEDR(),
	}
}

// Cluster is an allocated set of Summit compute nodes plus Alpine.
type Cluster struct {
	Eng     *sim.Engine
	Fabric  *simnet.Fabric
	GPFS    *pfs.GPFS
	Devices []*device.Device
	Spec    NodeSpec
	nodes   int
}

// NewCluster builds an allocation of nodes compute nodes whose GPFS holds
// the files in ns.
func NewCluster(eng *sim.Engine, nodes int, ns *vfs.Namespace) *Cluster {
	if nodes < 1 || nodes > MaxNodes {
		panic(fmt.Sprintf("summit: allocation of %d nodes outside [1, %d]", nodes, MaxNodes))
	}
	spec := TableI()
	c := &Cluster{
		Eng:    eng,
		Fabric: simnet.New(eng, spec.Interconnect, nodes),
		GPFS:   pfs.New(eng, pfs.Alpine(), ns),
		Spec:   spec,
		nodes:  nodes,
	}
	for n := 0; n < nodes; n++ {
		c.Devices = append(c.Devices, device.New(eng, fmt.Sprintf("nvme%d", n), spec.NVMe))
	}
	return c
}

// Nodes reports the allocation size.
func (c *Cluster) Nodes() int { return c.nodes }

// RegisterJob informs GPFS of procs active clients (token-state pressure;
// §II-C). Pair with a negative call at job end if reusing the cluster.
func (c *Cluster) RegisterJob(procs int) { c.GPFS.RegisterClients(procs) }

// GPFSFS returns the per-rank FS provider for the GPFS baseline.
func (c *Cluster) GPFSFS() func(node, proc int) vfs.FS {
	clients := make(map[int]*pfs.Client)
	return func(node, proc int) vfs.FS {
		if fs, ok := clients[node]; ok {
			return fs
		}
		fs := c.GPFS.Client(c.Fabric, simnet.NodeID(node))
		clients[node] = fs
		return fs
	}
}

// XFSFS returns the per-rank FS provider for the XFS-on-NVMe upper bound:
// the dataset is assumed staged onto every node's NVMe before the run
// (the paper excludes staging time). It panics if the dataset cannot fit
// the node NVMe, which is exactly the feasibility constraint that makes
// HVAC's aggregated cache interesting.
func (c *Cluster) XFSFS() func(node, proc int) vfs.FS {
	ns := c.GPFS.Namespace()
	if ns.TotalBytes() > c.Spec.NVMe.Capacity {
		panic(fmt.Sprintf("summit: dataset (%d bytes) exceeds node NVMe (%d bytes); XFS-on-NVMe staging infeasible",
			ns.TotalBytes(), c.Spec.NVMe.Capacity))
	}
	mounts := make(map[int]*localfs.FS)
	return func(node, proc int) vfs.FS {
		if fs, ok := mounts[node]; ok {
			return fs
		}
		fs := localfs.New(localfs.XFS(), c.Devices[node], ns)
		mounts[node] = fs
		return fs
	}
}

// HVACOptions configures an HVAC deployment on the allocation.
type HVACOptions struct {
	// InstancesPerNode is the paper's i in HVAC(i×1).
	InstancesPerNode int
	// Replicas enables §III-H failover when > 1.
	Replicas int
	// EvictionSeed seeds the per-instance random eviction policies.
	EvictionSeed uint64
	// Eviction overrides the policy constructor (nil: random, per paper).
	Eviction func(seed uint64) cachestore.Policy
	// CapacityPerInstance overrides each instance's cache share
	// (default: NVMe capacity / instances).
	CapacityPerInstance int64
	// SegmentSize > 0 enables segment-level caching (§III-E) on the
	// job's clients.
	SegmentSize int64
}

// HVACJob is a running HVAC deployment: instances x nodes servers plus
// one client per node.
type HVACJob struct {
	Servers []*core.SimServer
	clients map[int]*core.SimClient
	cluster *Cluster
	opts    HVACOptions
}

// StartHVAC spawns the HVAC servers on every node of the allocation — the
// alloc_flags "hvac" equivalent (§III-C).
func (c *Cluster) StartHVAC(opts HVACOptions) *HVACJob {
	if opts.InstancesPerNode <= 0 {
		opts.InstancesPerNode = 1
	}
	if opts.Eviction == nil {
		opts.Eviction = func(seed uint64) cachestore.Policy { return cachestore.NewRandom(seed) }
	}
	costs := core.DefaultSimCosts()
	capacity := opts.CapacityPerInstance
	if capacity <= 0 {
		capacity = c.Spec.NVMe.Capacity / int64(opts.InstancesPerNode)
	}
	job := &HVACJob{cluster: c, opts: opts, clients: make(map[int]*core.SimClient)}
	for n := 0; n < c.nodes; n++ {
		for k := 0; k < opts.InstancesPerNode; k++ {
			seed := opts.EvictionSeed + uint64(n)*131 + uint64(k)
			srv := core.NewSimServer(c.Eng, simnet.NodeID(n), c.Fabric, c.GPFS,
				c.Devices[n], capacity, opts.Eviction(seed), costs)
			job.Servers = append(job.Servers, srv)
		}
	}
	if opts.Replicas > 1 {
		for i, srv := range job.Servers {
			srv.SetCluster(job.Servers, i, opts.Replicas)
		}
	}
	return job
}

// Client returns (memoised) the HVAC client for a node.
func (j *HVACJob) Client(node int) *core.SimClient {
	if cl, ok := j.clients[node]; ok {
		return cl
	}
	replicas := j.opts.Replicas
	if replicas < 1 {
		replicas = 1
	}
	cl := core.NewSimClient(j.cluster.Eng, simnet.NodeID(node), j.cluster.Fabric,
		j.Servers, replicas, j.cluster.GPFS, core.DefaultSimCosts())
	if j.opts.SegmentSize > 0 {
		cl.SetSegmentSize(j.opts.SegmentSize)
	}
	j.clients[node] = cl
	return cl
}

// FS returns the per-rank FS provider for training runs.
func (j *HVACJob) FS() func(node, proc int) vfs.FS {
	return func(node, proc int) vfs.FS { return j.Client(node) }
}

// Prewarm pre-populates the job's caches with the whole dataset before
// training (the paper's future-work prefetching, §IV-C): every node's
// client prefetches a strided shard of the namespace, each file landing
// on its home server. It runs the engine until the copies complete and
// returns the staging duration in virtual time.
func (j *HVACJob) Prewarm() (sim.Duration, error) {
	c := j.cluster
	paths := c.GPFS.Namespace().Paths()
	start := c.Eng.Now()
	for n := 0; n < c.nodes; n++ {
		n := n
		client := j.Client(n)
		c.Eng.Spawn(fmt.Sprintf("prewarm%d", n), func(p *sim.Proc) {
			var shard []string
			for i := n; i < len(paths); i += c.nodes {
				shard = append(shard, paths[i])
			}
			client.Prefetch(p, shard)
		})
	}
	if err := c.Eng.RunAll(); err != nil {
		return 0, err
	}
	return c.Eng.Now().Sub(start), nil
}

// TotalStats aggregates server counters across the job.
func (j *HVACJob) TotalStats() core.SimServerStats {
	var t core.SimServerStats
	for _, s := range j.Servers {
		st := s.Stats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Evictions += st.Evictions
	}
	return t
}
