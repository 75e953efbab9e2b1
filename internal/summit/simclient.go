package summit

import (
	"fmt"

	"hvac/internal/pfs"
	"hvac/internal/place"
	"hvac/internal/sim"
	"hvac/internal/simnet"
	"hvac/internal/vfs"
)

// SimClientStats counts simulated client activity.
type SimClientStats struct {
	Opens       int64
	LocalOpens  int64 // home server co-located on this node
	RemoteOpens int64
	Fallbacks   int64 // served from GPFS after server failure
	Failovers   int64 // served by a non-primary replica
}

// SimClient is the interception layer on one simulated compute node: the
// LD_PRELOAD-equivalent that forwards <open, read, close> to the home
// HVAC server instance chosen by hashing (§III-E). It implements vfs.FS,
// so workloads swap between GPFS, XFS-on-NVMe and HVAC without change —
// the portability property the paper claims.
type SimClient struct {
	node     simnet.NodeID
	fabric   *simnet.Fabric
	servers  []*SimServer
	placeFn  func(path string) int
	replicas func(path string) []int
	gpfsC    *pfs.Client // PFS fallback path
	costs    simCosts
	segSize  int64

	handles *vfs.HandleTable
	hServer map[vfs.Handle]*SimServer
	hCached map[vfs.Handle]bool
	hSeg    map[vfs.Handle]bool
	hFall   map[vfs.Handle]vfs.Handle
	stats   SimClientStats
}

// newSimClient builds a client on node addressing the given global server
// list, placing with the paper's ModHash; g may be nil to make server
// failures fatal instead of falling back to the PFS.
func newSimClient(node simnet.NodeID, fabric *simnet.Fabric,
	servers []*SimServer, replicaCount int, g *pfs.GPFS, costs simCosts) *SimClient {
	if replicaCount < 1 {
		replicaCount = 1
	}
	n := len(servers)
	c := &SimClient{
		node:    node,
		fabric:  fabric,
		servers: servers,
		placeFn: func(path string) int { return place.ModHash{}.Place(path, n) },
		replicas: func(path string) []int {
			return place.ModHash{}.Replicas(path, n, replicaCount)
		},
		costs:   costs,
		handles: vfs.NewHandleTable(),
		hServer: make(map[vfs.Handle]*SimServer),
		hCached: make(map[vfs.Handle]bool),
		hSeg:    make(map[vfs.Handle]bool),
		hFall:   make(map[vfs.Handle]vfs.Handle),
	}
	if g != nil {
		c.gpfsC = g.Client(fabric, node)
	}
	return c
}

// setSegmentSize enables segment-level caching (§III-E): reads are split
// into segSize-byte segments, each homed independently.
func (c *SimClient) setSegmentSize(segSize int64) { c.segSize = segSize }

// segmentServer returns the home server of segment seg of path.
func (c *SimClient) segmentServer(path string, seg int64) *SimServer {
	return c.servers[c.placeFn(fmt.Sprintf("%s@%d", path, seg))]
}

// SetPlacement overrides the home-server function (the Fig. 13 experiment
// forces local/remote placement fractions this way).
func (c *SimClient) SetPlacement(fn func(path string) int) {
	c.placeFn = fn
	c.replicas = func(path string) []int { return []int{fn(path)} }
}

// Stats returns a snapshot of the client counters.
func (c *SimClient) Stats() SimClientStats { return c.stats }

var _ vfs.FS = (*SimClient)(nil)

// Name implements vfs.FS.
func (c *SimClient) Name() string { return "hvac" }

func (c *SimClient) rpc(p *sim.Proc, srv *SimServer) {
	if c.fabric != nil {
		c.fabric.RPC(p, c.node, srv.node, c.costs.RPCBytes, c.costs.RPCBytes)
	}
}

// prefetch asks each of a file's R homes to pre-populate its cache
// without reading the file — the §IV-C pre-population that hides the
// epoch-1 copy, extended to warm every replica so a failover target is
// already hot. The hints ride one batched RPC per server; failed servers
// are skipped.
func (c *SimClient) prefetch(p *sim.Proc, paths []string) {
	groups := make([][]string, len(c.servers))
	for _, path := range paths {
		for _, si := range c.replicas(path) {
			groups[si] = append(groups[si], path)
		}
	}
	for si, group := range groups {
		if len(group) == 0 {
			continue
		}
		srv := c.servers[si]
		c.rpc(p, srv)
		srv.prefetchBatch(group)
	}
}

// Open implements vfs.FS: forward to the home server, fail over to
// replicas, and finally fall back to the PFS (if configured).
func (c *SimClient) Open(p *sim.Proc, path string) (vfs.Handle, int64, error) {
	p.Sleep(c.costs.ClientOverhead)
	if c.segSize > 0 {
		srv := c.segmentServer(path, 0)
		c.rpc(p, srv)
		size, err := srv.stat(p, path)
		if err != nil {
			if c.gpfsC == nil {
				return 0, 0, err
			}
			h, sz, gerr := c.gpfsC.Open(p, path)
			if gerr != nil {
				return 0, 0, gerr
			}
			ch := c.handles.Open(path, sz)
			c.hFall[ch] = h
			c.stats.Opens++
			c.stats.Fallbacks++
			return ch, sz, nil
		}
		h := c.handles.Open(path, size)
		c.hSeg[h] = true
		c.stats.Opens++
		return h, size, nil
	}
	var lastErr error
	for i, si := range c.replicas(path) {
		srv := c.servers[si]
		c.rpc(p, srv)
		size, cached, err := srv.open(p, path)
		if err == nil {
			h := c.handles.Open(path, size)
			c.hServer[h] = srv
			c.hCached[h] = cached
			c.stats.Opens++
			if srv.node == c.node {
				c.stats.LocalOpens++
			} else {
				c.stats.RemoteOpens++
			}
			if i > 0 {
				c.stats.Failovers++
			}
			return h, size, nil
		}
		lastErr = err
		if err != errServerFailed {
			break // application error; replicas would repeat it
		}
	}
	if c.gpfsC == nil {
		return 0, 0, fmt.Errorf("hvac sim client: open %s: %w", path, lastErr)
	}
	h, size, err := c.gpfsC.Open(p, path)
	if err != nil {
		return 0, 0, err
	}
	ch := c.handles.Open(path, size)
	c.hFall[ch] = h
	c.stats.Opens++
	c.stats.Fallbacks++
	return ch, size, nil
}

// ReadAt implements vfs.FS.
func (c *SimClient) ReadAt(p *sim.Proc, h vfs.Handle, off, n int64) (int64, error) {
	path, size, err := c.handles.Get(h)
	if err != nil {
		return 0, err
	}
	if fh, ok := c.hFall[h]; ok {
		return c.gpfsC.ReadAt(p, fh, off, n)
	}
	n = vfs.ClampRead(size, off, n)
	if n == 0 {
		return 0, nil
	}
	if c.hSeg[h] {
		return c.readAtSegmented(p, path, size, off, n)
	}
	p.Sleep(c.costs.ClientOverhead)
	srv := c.hServer[h]
	c.rpc(p, srv)
	if err := srv.read(p, path, off, n, size, c.hCached[h], c.node); err != nil {
		return 0, err
	}
	return n, nil
}

// readAtSegmented splits a read across the per-segment home servers.
func (c *SimClient) readAtSegmented(p *sim.Proc, path string, size, off, n int64) (int64, error) {
	var total int64
	for total < n {
		pos := off + total
		seg := pos / c.segSize
		segStart := seg * c.segSize
		segBytes := c.segSize
		if segStart+segBytes > size {
			segBytes = size - segStart
		}
		want := n - total
		if pos+want > segStart+c.segSize {
			want = segStart + c.segSize - pos
		}
		p.Sleep(c.costs.ClientOverhead)
		srv := c.segmentServer(path, seg)
		c.rpc(p, srv)
		if err := srv.readSegment(p, fmt.Sprintf("%s@%d", path, seg), want, segBytes, c.node); err != nil {
			return total, err
		}
		total += want
	}
	return total, nil
}

// Close implements vfs.FS: the out-of-band teardown RPC.
func (c *SimClient) Close(p *sim.Proc, h vfs.Handle) error {
	path, _, err := c.handles.Get(h)
	if err != nil {
		return err
	}
	if seg := c.hSeg[h]; seg {
		delete(c.hSeg, h)
		_ = c.handles.Close(h) // cannot fail: Get(h) above validated the handle
		p.Sleep(c.costs.ClientOverhead)
		return nil // stateless: no server-side handle
	}
	if fh, ok := c.hFall[h]; ok {
		delete(c.hFall, h)
		_ = c.handles.Close(h) // cannot fail: Get(h) above validated the handle
		return c.gpfsC.Close(p, fh)
	}
	srv := c.hServer[h]
	cached := c.hCached[h]
	delete(c.hServer, h)
	delete(c.hCached, h)
	_ = c.handles.Close(h) // cannot fail: Get(h) above validated the handle
	p.Sleep(c.costs.ClientOverhead)
	c.rpc(p, srv)
	if err := srv.close(p, path, cached); err != nil && err != errServerFailed {
		return err
	}
	return nil
}
