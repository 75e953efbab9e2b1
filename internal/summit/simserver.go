package summit

import (
	"fmt"
	"time"

	"hvac/internal/cachestore"
	"hvac/internal/device"
	"hvac/internal/pfs"
	"hvac/internal/place"
	"hvac/internal/sim"
	"hvac/internal/simnet"
)

// The twins in simserver.go and simclient.go model the paper's HVAC on
// Summit, not this repository's server (internal/core): a single
// data-mover thread per instance, tee-on-first-read fills and §III-E
// segment caching, with costs calibrated to the paper's figures.

// simCosts are the software overheads of the paper's HVAC implementation,
// calibrated so that the measured gap to XFS-on-NVMe reproduces the
// paper's ~25%/14%/9% ladder for 1/2/4 instances (Fig. 9b): the gap is
// queueing at the single data-mover thread plus fixed RPC cost.
type simCosts struct {
	// OpenHandling is data-mover occupancy per forwarded open.
	OpenHandling time.Duration
	// ReadHandling is data-mover occupancy to initiate a cached read
	// (the NVMe transfer itself proceeds without holding the mover; the
	// bulk transfer is RDMA and also asynchronous).
	ReadHandling time.Duration
	// CloseHandling is data-mover occupancy per teardown RPC (§III-D ⑧).
	CloseHandling time.Duration
	// CopyOverhead is extra data-mover occupancy per first-read copy —
	// the fs::copy bookkeeping and cache-allocation cost the paper cites
	// among HVAC's implementation overheads (§IV-B).
	CopyOverhead time.Duration
	// ClientOverhead is client-side interposition CPU per call.
	ClientOverhead time.Duration
	// RPCBytes is the size of a small RPC message.
	RPCBytes int64
}

// defaultSimCosts returns the calibrated costs.
func defaultSimCosts() simCosts {
	return simCosts{
		OpenHandling:   22 * time.Microsecond,
		ReadHandling:   16 * time.Microsecond,
		CloseHandling:  7 * time.Microsecond,
		CopyOverhead:   600 * time.Microsecond,
		ClientOverhead: 4 * time.Microsecond,
		RPCBytes:       160,
	}
}

// SimServerStats counts the simulated server activity a figure prints
// (ablation-eviction's hit rate and evictions) or a test asserts.
type SimServerStats struct {
	Hits, Misses int64
	Evictions    int64
}

// SimServer is one HVAC server instance in the simulated cluster. Multiple
// instances on a node (the paper's i×1 variants) share the node's NVMe
// device but each has its own data-mover thread and cache partition.
type SimServer struct {
	eng    *sim.Engine
	node   simnet.NodeID
	fabric *simnet.Fabric
	gpfs   *pfs.GPFS
	dev    *device.Device
	mover  *sim.Resource
	index  *cachestore.Index
	costs  simCosts

	// Replica-warming wiring (setCluster); nil/0 disables warming.
	cluster      []*SimServer
	self         int
	replicaCount int

	inflight map[string]bool
	failed   bool
	stats    SimServerStats
}

// newSimServer builds a server instance. capacity is this instance's share
// of the node's NVMe; policy nil means the paper's random eviction.
func newSimServer(eng *sim.Engine, node simnet.NodeID, fabric *simnet.Fabric,
	g *pfs.GPFS, dev *device.Device, capacity int64, policy cachestore.Policy,
	costs simCosts) *SimServer {
	return &SimServer{
		eng:      eng,
		node:     node,
		fabric:   fabric,
		gpfs:     g,
		dev:      dev,
		mover:    sim.NewResource(eng, fmt.Sprintf("hvacd@%d", node), 1),
		index:    cachestore.NewIndex(capacity, policy),
		costs:    costs,
		inflight: make(map[string]bool),
	}
}

// setCluster wires this instance into the replicated cluster so its
// demand fills warm the key's other homes — the sim mirror of
// core.Server.SetPeers in real mode. Call once after constructing every
// instance; replicas < 2 disables warming.
func (s *SimServer) setCluster(servers []*SimServer, self int, replicas int) {
	s.cluster = servers
	s.self = self
	s.replicaCount = replicas
}

// Stats returns a snapshot of the server counters.
func (s *SimServer) Stats() SimServerStats { return s.stats }

// Fail marks the server crashed: every subsequent request errors, which
// exercises the client failover / PFS-fallback paths.
func (s *SimServer) Fail() { s.failed = true }

// errServerFailed mimics an RPC timeout against a dead peer.
var errServerFailed = fmt.Errorf("hvac sim server: unreachable")

// open services a forwarded open. A cache hit returns the resident size.
// A miss returns the file's size from the PFS metadata path and marks the
// handle for read-through: the client's first read streams from the PFS
// while the data-mover persists the copy to node-local storage
// asynchronously (tee-on-first-read), so epoch 1 proceeds at PFS speed for
// every variant — the Fig. 11 observation — instead of serialising behind
// a single mover thread.
func (s *SimServer) open(p *sim.Proc, path string) (size int64, cached bool, err error) {
	if s.failed {
		return 0, false, errServerFailed
	}
	release := s.mover.Acquire(p)
	p.Sleep(s.costs.OpenHandling)
	if s.index.Peek(path) {
		size, _ = s.index.Size(path)
		s.index.Contains(path) // recency + hit accounting
		s.stats.Hits++
		release()
		return size, true, nil
	}
	release()
	// Read-through: the PFS metadata transaction happens now, exactly as
	// a direct GPFS open would.
	size, err = s.gpfs.OpenMeta(p, path)
	if err != nil {
		return 0, false, err
	}
	return size, false, nil
}

// read services a forwarded read of n bytes to clientNode: brief mover
// occupancy to initiate, then a device (cache hit) or PFS (read-through)
// transfer and the bulk send, concurrent with other requests. On the
// first read-through of a file the server tees the bytes into an
// asynchronous data-mover copy (§III-D ⑤-⑥: the mover tracks and copies;
// the shared-queue mutex guarantees a file is copied only once).
func (s *SimServer) read(p *sim.Proc, path string, off, n, fileSize int64, cached bool, clientNode simnet.NodeID) error {
	if s.failed {
		return errServerFailed
	}
	s.mover.Use(p, s.costs.ReadHandling)
	if cached && s.index.Peek(path) {
		s.index.Contains(path)
		s.dev.Read(p, n)
	} else {
		s.gpfs.ReadBytes(p, n)
		if !cached && off == 0 && !s.inflight[path] && !s.index.Peek(path) {
			s.inflight[path] = true
			s.scheduleCopy(path, fileSize, false)
		}
	}
	if s.fabric != nil {
		s.fabric.Send(p, s.node, clientNode, n)
	}
	return nil
}

// scheduleCopy enqueues a background data-mover copy. For a teed
// read-through (fromPFS = false) the bytes are already in flight and only
// the NVMe write is charged; for a prefetch (fromPFS = true) the mover
// performs the whole PFS transaction itself.
func (s *SimServer) scheduleCopy(path string, size int64, fromPFS bool) {
	s.eng.Spawn("hvac-copy", func(p *sim.Proc) {
		release := s.mover.Acquire(p)
		defer release()
		defer delete(s.inflight, path)
		if s.failed {
			return
		}
		p.Sleep(s.costs.CopyOverhead)
		if fromPFS {
			got, err := s.gpfs.OpenMeta(p, path)
			if err != nil {
				return
			}
			size = got
			s.gpfs.ReadBytes(p, size)
			if s.fabric != nil {
				s.fabric.Send(p, s.node, s.node, size)
			}
			s.gpfs.CloseMeta(p)
		}
		s.dev.Write(p, size)
		evicted, err := s.index.Insert(path, size)
		if err != nil {
			return // cache cannot admit it (e.g. all pinned); stay uncached
		}
		s.stats.Evictions += int64(len(evicted))
		s.stats.Misses++
		if !fromPFS {
			// A demand fill warms the key's other homes so a failover
			// target already holds the bytes (mirror of core's warmReplicas in
			// real mode). Prefetch fills never cascade.
			s.warmPeers(path, size)
		}
	})
}

// warmPeers schedules replica-warming copies of key on its other homes.
func (s *SimServer) warmPeers(key string, size int64) {
	if s.replicaCount < 2 {
		return
	}
	for _, si := range (place.ModHash{}).Replicas(key, len(s.cluster), s.replicaCount) {
		if si == s.self {
			continue
		}
		s.cluster[si].warm(key, size)
	}
}

// warm schedules a warming copy: this instance pulls size bytes of key
// from the PFS into its own cache. No metadata transaction — the sender
// already resolved the size when it served the demand read.
func (s *SimServer) warm(key string, size int64) {
	if s.failed || s.index.Peek(key) || s.inflight[key] {
		return
	}
	s.inflight[key] = true
	s.eng.Spawn("hvac-warm", func(p *sim.Proc) {
		release := s.mover.Acquire(p)
		defer release()
		defer delete(s.inflight, key)
		if s.failed {
			return
		}
		p.Sleep(s.costs.CopyOverhead)
		s.gpfs.ReadBytes(p, size)
		if s.fabric != nil {
			s.fabric.Send(p, s.node, s.node, size)
		}
		s.dev.Write(p, size)
		evicted, err := s.index.Insert(key, size)
		if err != nil {
			return
		}
		s.stats.Evictions += int64(len(evicted))
	})
}

// prefetchBatch accepts one batched pre-population hint: the data-mover
// copies each path from the PFS in the background (§IV-C future work,
// implemented), one RPC for the whole list. Like core.Server.planBatchEntry,
// the hint is answered without the mover: a residency check and an
// enqueue per path. Holding the mover per path would queue each client's
// hint behind every copy already scheduled there, and since every client
// walks the servers in the same order, the allocation would convoy on one
// mover at a time.
func (s *SimServer) prefetchBatch(paths []string) {
	if s.failed {
		return
	}
	for _, path := range paths {
		if s.index.Peek(path) || s.inflight[path] {
			continue
		}
		s.inflight[path] = true
		s.scheduleCopy(path, 0, true)
	}
}

// close services the out-of-band teardown RPC (§III-D ⑧); read-through
// handles also release their PFS token.
func (s *SimServer) close(p *sim.Proc, path string, cached bool) error {
	if s.failed {
		return errServerFailed
	}
	s.mover.Use(p, s.costs.CloseHandling)
	if !cached {
		s.gpfs.CloseMeta(p)
	}
	return nil
}

// stat services a segmented open's size probe: one metadata transaction
// against the PFS (the namespace is still owned by GPFS; HVAC never keeps
// its own metadata).
func (s *SimServer) stat(p *sim.Proc, path string) (int64, error) {
	if s.failed {
		return 0, errServerFailed
	}
	s.mover.Use(p, s.costs.OpenHandling)
	size, err := s.gpfs.OpenMeta(p, path)
	if err != nil {
		return 0, err
	}
	s.gpfs.CloseMeta(p)
	return size, nil
}

// readSegment services a stateless segment read (§III-E segment-level
// caching): the segment key is cached and homed independently of the
// file; misses are read through from the PFS with a teed background copy.
func (s *SimServer) readSegment(p *sim.Proc, key string, n, segBytes int64, clientNode simnet.NodeID) error {
	if s.failed {
		return errServerFailed
	}
	s.mover.Use(p, s.costs.ReadHandling)
	if s.index.Peek(key) {
		s.index.Contains(key)
		s.stats.Hits++
		s.dev.Read(p, n)
	} else {
		s.gpfs.ReadBytes(p, n)
		if !s.inflight[key] {
			s.inflight[key] = true
			s.scheduleCopy(key, segBytes, false)
		}
	}
	if s.fabric != nil {
		s.fabric.Send(p, s.node, clientNode, n)
	}
	return nil
}

// MoverUtilization reports the data-mover thread's mean utilization — the
// instance-scaling diagnostic behind Fig. 9b.
func (s *SimServer) MoverUtilization() float64 { return s.mover.Utilization() }
