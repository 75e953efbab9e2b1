// Package simnet models the interconnect fabric of the simulated cluster:
// Summit's dual-rail Mellanox EDR InfiniBand (Table I), over which HVAC's
// Mercury-style RPCs and bulk transfers travel.
//
// Model: each node has a full-duplex NIC. A bulk transfer serialises the
// payload once, on the sender's egress link, then pays the base fabric
// latency and a receive-side processing charge (memory-copy rate, not
// re-serialisation — RDMA delivers into application buffers). This keeps
// one-to-many fan-out byte-accurate at the hot sender while avoiding
// double-counting the wire time, an approximation documented in DESIGN.md.
// Small RPCs pay latency plus per-message processing on each side.
package simnet

import (
	"fmt"
	"time"

	"hvac/internal/sim"
)

// Config describes the fabric.
type Config struct {
	// LinkBandwidth is per-node, per-direction bandwidth in bytes/second.
	LinkBandwidth float64
	// BaseLatency is the one-way small-message fabric latency.
	BaseLatency time.Duration
	// RecvCopyRate is the receive-side delivery rate in bytes/second.
	RecvCopyRate float64
	// MsgOverhead is the per-message CPU handling cost on each endpoint.
	MsgOverhead time.Duration
	// NICParallelism is the number of concurrent transfers a NIC direction
	// sustains before queueing (send queues / rails).
	NICParallelism int
}

// SummitEDR returns the dual-rail Mellanox EDR InfiniBand configuration:
// 2 rails x 100 Gb/s = 25 GB/s per node, ~1.5 us one-way latency.
func SummitEDR() Config {
	return Config{
		LinkBandwidth:  25e9,
		BaseLatency:    1500 * time.Nanosecond,
		RecvCopyRate:   24e9,
		MsgOverhead:    800 * time.Nanosecond,
		NICParallelism: 2,
	}
}

// NodeID identifies a node on the fabric.
type NodeID int

type nic struct {
	egress  *sim.Resource
	ingress *sim.Resource
}

// Fabric is the simulated interconnect.
type Fabric struct {
	eng  *sim.Engine
	cfg  Config
	nics []nic

	bytesMoved int64
}

// New builds a fabric with n nodes.
func New(eng *sim.Engine, cfg Config, n int) *Fabric {
	if cfg.NICParallelism < 1 {
		cfg.NICParallelism = 1
	}
	f := &Fabric{eng: eng, cfg: cfg, nics: make([]nic, n)}
	for i := range f.nics {
		id := fmt.Sprintf("node%d", i)
		f.nics[i] = nic{
			egress:  sim.NewRateResource(eng, id+"/tx", cfg.NICParallelism, cfg.LinkBandwidth, cfg.MsgOverhead),
			ingress: sim.NewRateResource(eng, id+"/rx", cfg.NICParallelism, cfg.RecvCopyRate, cfg.MsgOverhead),
		}
	}
	return f
}

func (f *Fabric) check(n NodeID) {
	if int(n) < 0 || int(n) >= len(f.nics) {
		panic(fmt.Sprintf("simnet: node %d out of range [0,%d)", n, len(f.nics)))
	}
}

// Send moves bytes from one node to another in virtual time, including
// serialisation, fabric latency and receive delivery. Local (from == to)
// transfers pay only the receive copy — HVAC clients co-located with their
// home server still cross the RPC boundary but not the wire.
func (f *Fabric) Send(p *sim.Proc, from, to NodeID, bytes int64) time.Duration {
	f.check(from)
	f.check(to)
	start := p.Now()
	f.bytesMoved += bytes
	if from != to {
		f.nics[from].egress.UseBytes(p, bytes)
		p.Sleep(f.cfg.BaseLatency)
	}
	f.nics[to].ingress.UseBytes(p, bytes)
	return p.Now().Sub(start)
}

// RPC performs a small request/response round trip: request message one
// way, response message back. Payload handling for bulk data is separate
// (Send). Local RPCs skip the wire latency but still pay message handling,
// matching a loopback Mercury endpoint.
func (f *Fabric) RPC(p *sim.Proc, from, to NodeID, reqBytes, respBytes int64) time.Duration {
	f.check(from)
	f.check(to)
	start := p.Now()
	if from != to {
		f.nics[from].egress.UseBytes(p, reqBytes)
		p.Sleep(f.cfg.BaseLatency)
		f.nics[to].ingress.UseBytes(p, reqBytes)
		f.nics[to].egress.UseBytes(p, respBytes)
		p.Sleep(f.cfg.BaseLatency)
		f.nics[from].ingress.UseBytes(p, respBytes)
	} else {
		f.nics[to].ingress.UseBytes(p, reqBytes)
		f.nics[to].ingress.UseBytes(p, respBytes)
	}
	return p.Now().Sub(start)
}

// BytesMoved reports total payload bytes sent over the fabric.
func (f *Fabric) BytesMoved() int64 { return f.bytesMoved }
