// Package pfs models the shared parallel file system of the simulated
// substrate: Alpine, Summit's 250 PB IBM Spectrum Scale (GPFS) system,
// reachable from every compute node at an aggregate 2.5 TB/s (§IV-A1).
//
// The model captures the two mechanisms the paper's motivation section
// (§II-C) measures with MDTest:
//
//   - Metadata: every <open> consults a metadata-server pool that also
//     issues the lock/token for the file. The pool has a fixed number of
//     servers; per-operation service time grows mildly with the number of
//     active clients (token/lock state management), so open throughput
//     saturates and then degrades slightly at extreme scale — the
//     "GPFS saturates at 1,024 nodes" effect in Fig. 8.
//   - Data: reads stream from a pool of NSD data servers whose combined
//     bandwidth is capped (2.5 TB/s for Alpine), so large-file workloads
//     shift from metadata-bound to bandwidth-bound (Fig. 4).
package pfs

import (
	"fmt"
	"time"

	"hvac/internal/sim"
	"hvac/internal/simnet"
	"hvac/internal/vfs"
)

// Config parameterises the GPFS model. Zero fields are filled from Alpine.
type Config struct {
	// MetadataServers is the size of the MDS pool.
	MetadataServers int
	// OpenService is the base metadata service time per open (lookup +
	// token grant) at an idle system.
	OpenService time.Duration
	// CloseService is the metadata service time per close (token release).
	CloseService time.Duration
	// TokenContention is the fractional increase in metadata service time
	// per registered active client, modelling distributed lock state
	// maintenance: service = base * (1 + TokenContention*clients).
	TokenContention float64
	// DataStreams is the number of concurrent read streams the NSD/disk
	// layer services before queueing (Alpine is HDD-based; this is
	// drive-level parallelism, tens of thousands).
	DataStreams int
	// AggregateBandwidth is the combined read bandwidth of the data
	// path, B/s — a shared bus all streams serialise on.
	AggregateBandwidth float64
	// ReadOverhead is the per-read-op issue latency (HDD seek + NSD
	// processing; milliseconds on a disk-based system like Alpine).
	ReadOverhead time.Duration
	// ClientOverhead is per-call client-side VFS/GPFS-client CPU cost.
	ClientOverhead time.Duration
}

// Alpine returns the configuration calibrated to Summit's Alpine file
// system: 2.5 TB/s aggregate, metadata throughput in the few-hundred-
// thousand transactions/s range so that 32 KB MDTest saturates on metadata
// while 8 MB MDTest saturates on bandwidth, as in Figs. 3-4.
func Alpine() Config {
	return Config{
		MetadataServers:    24,
		OpenService:        120 * time.Microsecond,
		CloseService:       30 * time.Microsecond,
		TokenContention:    0.00006,
		DataStreams:        20000,
		AggregateBandwidth: 2.5e12,
		ReadOverhead:       1800 * time.Microsecond,
		ClientOverhead:     8 * time.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	d := Alpine()
	if c.MetadataServers == 0 {
		c.MetadataServers = d.MetadataServers
	}
	if c.OpenService == 0 {
		c.OpenService = d.OpenService
	}
	if c.CloseService == 0 {
		c.CloseService = d.CloseService
	}
	if c.DataStreams == 0 {
		c.DataStreams = d.DataStreams
	}
	if c.AggregateBandwidth == 0 {
		c.AggregateBandwidth = d.AggregateBandwidth
	}
	if c.ReadOverhead == 0 {
		c.ReadOverhead = d.ReadOverhead
	}
	if c.ClientOverhead == 0 {
		c.ClientOverhead = d.ClientOverhead
	}
	return c
}

// GPFS is the shared parallel file system instance. The data path has two
// stages, like internal/device: an issue stage with DataStreams-way
// concurrency charging the per-read latency, then a shared bus
// serialising payload bytes at the aggregate bandwidth — so small-file
// workloads are latency/metadata-bound while large concurrent reads
// saturate at 2.5 TB/s (Figs. 3 vs 4).
type GPFS struct {
	eng     *sim.Engine
	cfg     Config
	ns      *vfs.Namespace
	mds     *sim.Resource
	issue   *sim.Resource
	dataBus *sim.Resource

	activeClients int
	opens         int64
	reads         int64
	bytesRead     int64
}

// New builds a GPFS over the namespace ns.
func New(eng *sim.Engine, cfg Config, ns *vfs.Namespace) *GPFS {
	cfg = cfg.withDefaults()
	return &GPFS{
		eng:     eng,
		cfg:     cfg,
		ns:      ns,
		mds:     sim.NewResource(eng, "gpfs/mds", cfg.MetadataServers),
		issue:   sim.NewResource(eng, "gpfs/nsd-issue", cfg.DataStreams),
		dataBus: sim.NewRateResource(eng, "gpfs/nsd-bus", 1, cfg.AggregateBandwidth, 0),
	}
}

// Namespace returns the backing namespace.
func (g *GPFS) Namespace() *vfs.Namespace { return g.ns }

// Config returns the effective configuration.
func (g *GPFS) Config() Config { return g.cfg }

// RegisterClients adds n active clients for token-contention accounting;
// call with a negative n to deregister.
func (g *GPFS) RegisterClients(n int) {
	g.activeClients += n
	if g.activeClients < 0 {
		panic("pfs: negative active client count")
	}
}

func (g *GPFS) metaFactor() float64 {
	return 1 + g.cfg.TokenContention*float64(g.activeClients)
}

// OpenMeta charges one metadata open (lookup + token) in virtual time and
// reports the file's size without allocating a handle. HVAC's data-mover
// uses the same metadata path when it copies a file out of GPFS.
func (g *GPFS) OpenMeta(p *sim.Proc, path string) (int64, error) {
	p.Sleep(g.cfg.ClientOverhead)
	g.mds.Use(p, time.Duration(float64(g.cfg.OpenService)*g.metaFactor()))
	size, ok := g.ns.Lookup(path)
	if !ok {
		return 0, fmt.Errorf("gpfs: open %s: %w", path, vfs.ErrNotExist)
	}
	g.opens++
	return size, nil
}

// CloseMeta charges one metadata close (token release).
func (g *GPFS) CloseMeta(p *sim.Proc) {
	p.Sleep(g.cfg.ClientOverhead)
	g.mds.Use(p, time.Duration(float64(g.cfg.CloseService)*g.metaFactor()))
}

// ReadBytes charges a read of n bytes against the NSD data path.
func (g *GPFS) ReadBytes(p *sim.Proc, n int64) {
	p.Sleep(g.cfg.ClientOverhead)
	g.issue.Use(p, g.cfg.ReadOverhead)
	g.dataBus.UseBytes(p, n)
	g.reads++
	g.bytesRead += n
}

// Stats reports op counters: opens, read ops, bytes read.
func (g *GPFS) Stats() (opens, reads, bytes int64) { return g.opens, g.reads, g.bytesRead }

// Client returns a per-node vfs.FS view of the file system. Reads
// additionally traverse the node's NIC on fabric f (nil to skip NIC
// accounting, e.g. in isolated unit tests).
func (g *GPFS) Client(f *simnet.Fabric, node simnet.NodeID) *Client {
	return &Client{fs: g, fabric: f, node: node, handles: vfs.NewHandleTable()}
}

// Client is a node-local mount of the shared GPFS.
type Client struct {
	fs      *GPFS
	fabric  *simnet.Fabric
	node    simnet.NodeID
	handles *vfs.HandleTable
}

var _ vfs.FS = (*Client)(nil)

// Name implements vfs.FS.
func (c *Client) Name() string { return "gpfs" }

// Open implements vfs.FS: one metadata transaction against the MDS pool.
func (c *Client) Open(p *sim.Proc, path string) (vfs.Handle, int64, error) {
	size, err := c.fs.OpenMeta(p, path)
	if err != nil {
		return 0, 0, err
	}
	return c.handles.Open(path, size), size, nil
}

// ReadAt implements vfs.FS: streams from the NSD pool through the node NIC.
func (c *Client) ReadAt(p *sim.Proc, h vfs.Handle, off, n int64) (int64, error) {
	_, size, err := c.handles.Get(h)
	if err != nil {
		return 0, err
	}
	n = vfs.ClampRead(size, off, n)
	if n == 0 {
		return 0, nil
	}
	c.fs.ReadBytes(p, n)
	if c.fabric != nil {
		// Payload delivery into the node; the NSD side is already
		// accounted in the data pool.
		c.fabric.Send(p, c.node, c.node, n)
	}
	return n, nil
}

// Close implements vfs.FS: one metadata token release.
func (c *Client) Close(p *sim.Proc, h vfs.Handle) error {
	if err := c.handles.Close(h); err != nil {
		return err
	}
	c.fs.CloseMeta(p)
	return nil
}
