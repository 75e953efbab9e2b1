// Package localfs models XFS on the node-local NVMe SSD — the paper's
// upper-bound baseline, where the complete dataset is staged to every
// node's 1.6 TB NVMe before the run (§IV-A3, "XFS-on-NVMe").
//
// Unlike GPFS there is no shared metadata service: opens cost only local
// CPU and the device, so aggregate throughput scales linearly with node
// count (§II-C: 22.5 TB/s at 4,096 nodes vs GPFS's 2.5 TB/s).
package localfs

import (
	"fmt"
	"time"

	"hvac/internal/device"
	"hvac/internal/sim"
	"hvac/internal/vfs"
)

// Config describes the local file-system software costs.
type Config struct {
	// OpenCost is the CPU + FS metadata cost of a local open (dentry,
	// inode, no network).
	OpenCost time.Duration
	// CloseCost is the cost of a local close.
	CloseCost time.Duration
	// ReadSetup is the per-read syscall/pagecache-miss overhead on top of
	// the device transfer.
	ReadSetup time.Duration
}

// XFS returns typical XFS-on-NVMe software costs.
func XFS() Config {
	return Config{
		OpenCost:  15 * time.Microsecond,
		CloseCost: 4 * time.Microsecond,
		ReadSetup: 6 * time.Microsecond,
	}
}

// FS is a node-private file system over a block device.
type FS struct {
	cfg     Config
	dev     *device.Device
	ns      *vfs.Namespace
	handles *vfs.HandleTable

	opens int64
	reads int64
	bytes int64
}

// New builds a local FS over dev containing the files in ns (the staged
// dataset copy).
func New(cfg Config, dev *device.Device, ns *vfs.Namespace) *FS {
	return &FS{cfg: cfg, dev: dev, ns: ns, handles: vfs.NewHandleTable()}
}

var _ vfs.FS = (*FS)(nil)

// Name implements vfs.FS.
func (f *FS) Name() string { return "xfs-nvme" }

// Open implements vfs.FS with purely local cost.
func (f *FS) Open(p *sim.Proc, path string) (vfs.Handle, int64, error) {
	p.Sleep(f.cfg.OpenCost)
	size, ok := f.ns.Lookup(path)
	if !ok {
		return 0, 0, fmt.Errorf("xfs: open %s: %w", path, vfs.ErrNotExist)
	}
	f.opens++
	return f.handles.Open(path, size), size, nil
}

// ReadAt implements vfs.FS against the NVMe device.
func (f *FS) ReadAt(p *sim.Proc, h vfs.Handle, off, n int64) (int64, error) {
	_, size, err := f.handles.Get(h)
	if err != nil {
		return 0, err
	}
	n = vfs.ClampRead(size, off, n)
	if n == 0 {
		return 0, nil
	}
	p.Sleep(f.cfg.ReadSetup)
	f.dev.Read(p, n)
	f.reads++
	f.bytes += n
	return n, nil
}

// Close implements vfs.FS.
func (f *FS) Close(p *sim.Proc, h vfs.Handle) error {
	if err := f.handles.Close(h); err != nil {
		return err
	}
	p.Sleep(f.cfg.CloseCost)
	return nil
}

// Stats reports op counters: opens, read ops, bytes read.
func (f *FS) Stats() (opens, reads, bytes int64) { return f.opens, f.reads, f.bytes }
