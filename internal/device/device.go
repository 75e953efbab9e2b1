// Package device models block storage devices for the simulated Summit
// substrate: the 1.6 TB Samsung NVMe SSD on every compute node (Table I of
// the paper).
//
// A device is a sim.Resource with bounded internal parallelism (queue
// depth); an I/O occupies one slot for issueLatency + bytes/bandwidth.
// Aggregate behaviour matches the paper's headline numbers: one NVMe
// sustains ~5.5 GB/s of reads, so 4,096 nodes sustain ~22.5 TB/s (§II-C).
package device

import (
	"time"

	"hvac/internal/sim"
)

// Profile describes a device's performance envelope.
type Profile struct {
	Name string
	// ReadBandwidth and WriteBandwidth in bytes/second.
	ReadBandwidth  float64
	WriteBandwidth float64
	// ReadLatency and WriteLatency are per-operation issue latencies.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// Parallelism is the number of I/Os the device services concurrently
	// (effective queue-depth benefit).
	Parallelism int
	// Capacity in bytes.
	Capacity int64
}

// SummitNVMe is the node-local 1.6 TB Samsung PM1725a-class NVMe SSD from
// Table I. Read bandwidth is set so that the aggregate of 4,096 devices is
// the paper's 22.5 TB/s.
func SummitNVMe() Profile {
	return Profile{
		Name:           "nvme",
		ReadBandwidth:  5.5e9,
		WriteBandwidth: 2.1e9,
		ReadLatency:    90 * time.Microsecond,
		WriteLatency:   30 * time.Microsecond,
		Parallelism:    8,
		Capacity:       1600e9,
	}
}

// Device is a simulated block device. An I/O passes two stages: an issue
// stage with Parallelism-way concurrency charging the per-op latency
// (overlapping command processing across the queue depth), then a single
// full-bandwidth bus serialising the byte transfer. This caps aggregate
// throughput at the profile bandwidth while letting deep queues of small
// I/Os reach the device's IOPS ceiling.
type Device struct {
	prof     Profile
	readLat  *sim.Resource
	readBus  *sim.Resource
	writeLat *sim.Resource
	writeBus *sim.Resource
}

// New constructs a device on the engine with the given profile.
func New(eng *sim.Engine, id string, prof Profile) *Device {
	if prof.Parallelism < 1 {
		prof.Parallelism = 1
	}
	return &Device{
		prof:     prof,
		readLat:  sim.NewResource(eng, id+"/read-issue", prof.Parallelism),
		readBus:  sim.NewRateResource(eng, id+"/read-bus", 1, prof.ReadBandwidth, 0),
		writeLat: sim.NewResource(eng, id+"/write-issue", prof.Parallelism),
		writeBus: sim.NewRateResource(eng, id+"/write-bus", 1, prof.WriteBandwidth, 0),
	}
}

// Read occupies the device for a read of n bytes, in virtual time.
func (d *Device) Read(p *sim.Proc, n int64) time.Duration {
	start := p.Now()
	d.readLat.Use(p, d.prof.ReadLatency)
	d.readBus.UseBytes(p, n)
	return p.Now().Sub(start)
}

// Write occupies the device for a write of n bytes, in virtual time.
func (d *Device) Write(p *sim.Proc, n int64) time.Duration {
	start := p.Now()
	d.writeLat.Use(p, d.prof.WriteLatency)
	d.writeBus.UseBytes(p, n)
	return p.Now().Sub(start)
}
