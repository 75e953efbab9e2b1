// Package hvac is a Go implementation and simulation study of HVAC
// ("High-Velocity AI Cache"), the distributed read-only cache layer for
// large-scale deep-learning training described in:
//
//	Khan et al., "HVAC: Removing I/O Bottleneck for Large-Scale Deep
//	Learning Applications", IEEE CLUSTER 2022 (ORNL).
//
// The package exposes two halves:
//
//   - A real client/server cache you can run on any machine or cluster:
//     StartServer launches an HVAC server that caches files from a
//     PFS-visible directory onto fast local storage; NewClient gives
//     applications a transparent read path that hashes each file to its
//     home server (no metadata service), with PFS fallback on failure.
//     This is the paper's system with the LD_PRELOAD interposition
//     replaced by a Go interception API (see DESIGN.md).
//
//   - A simulated Summit substrate (NewSimulatedCluster and the
//     Experiments registry) that regenerates every table and figure of
//     the paper's evaluation: GPFS vs XFS-on-NVMe vs HVAC(i×1) at up to
//     4,096 nodes.
//
// Quick start (real mode):
//
//	srv, _ := hvac.StartServer(hvac.ServerConfig{
//		ListenAddr: "127.0.0.1:0",
//		PFSDir:     "/pfs/dataset",
//		CacheDir:   "/nvme/hvac-cache",
//	})
//	defer srv.Close()
//	cli, _ := hvac.NewClient(hvac.ClientConfig{
//		Servers:    []string{srv.Addr()},
//		DatasetDir: "/pfs/dataset",
//	})
//	defer cli.Close()
//	data, _ := cli.ReadAll("/pfs/dataset/sample-000001.rec")
package hvac

import (
	"hvac/internal/cachestore"
	"hvac/internal/core"
	"hvac/internal/experiments"
	"hvac/internal/place"
	"hvac/internal/sim"
	"hvac/internal/summit"
	"hvac/internal/train"
	"hvac/internal/transport"
	"hvac/internal/vfs"
)

// Real-mode client/server API (the paper's §III system).
type (
	// ServerConfig configures an HVAC server instance.
	ServerConfig = core.ServerConfig
	// Server is a running HVAC cache server.
	Server = core.Server
	// ServerStats are server-side counters.
	ServerStats = core.ServerStats
	// ClientConfig configures an HVAC client.
	ClientConfig = core.ClientConfig
	// Client is the interception layer applications read through.
	Client = core.Client
	// ClientStats are client-side counters.
	ClientStats = core.ClientStats
	// File is a read-only handle served by HVAC (or PFS fallback).
	File = core.File
	// Transport is one client->server link; ClientConfig.DialTransport
	// lets callers decorate it (the fault-injection harness does).
	Transport = transport.Transport
)

// StartServer launches an HVAC server instance (one data-mover per
// configured worker, two-level demand/prefetch fetch queue, node-local
// cache store; cold reads are served from the in-flight fill).
func StartServer(cfg ServerConfig) (*Server, error) { return core.StartServer(cfg) }

// NewClient builds the client-side interception layer over a job's server
// allocation.
func NewClient(cfg ClientConfig) (*Client, error) { return core.NewClient(cfg) }

// Placement is the hash that homes a file on a server (§III-E). Real mode
// always places with ModHashPlacement; a simulated deployment takes one
// in SimHVACOptions.Placement.
type Placement = place.Policy

// ModHashPlacement returns the paper's placement: a path hash modulo the
// allocation.
func ModHashPlacement() Placement { return place.ModHash{} }

// RendezvousPlacement returns highest-random-weight placement (ablation).
func RendezvousPlacement() Placement { return place.Rendezvous{} }

// EvictionPolicy decides cache victims (§III-G).
type EvictionPolicy = cachestore.Policy

// RandomEviction returns the paper's random eviction policy.
func RandomEviction(seed uint64) EvictionPolicy { return cachestore.NewRandom(seed) }

// LRUEviction returns least-recently-used eviction.
func LRUEviction() EvictionPolicy { return cachestore.NewLRU() }

// FIFOEviction returns insertion-order eviction.
func FIFOEviction() EvictionPolicy { return cachestore.NewFIFO() }

// ClairvoyantEviction returns next-access-distance (Belady) eviction
// scored from installed epoch plans (Client.InstallPlan / OpPlan), with
// a segmented-LRU ghost-list fallback for keys no plan covers. Pass the
// same value to ServerConfig.Policy so the server can feed it plans.
func ClairvoyantEviction() *cachestore.Clairvoyant { return cachestore.NewClairvoyant() }

// AccessOracle is the epoch access order the clairvoyant planner is
// driven by; train.NewOracle values satisfy it.
type AccessOracle = core.AccessOracle

// NewAccessOracle derives epoch e's access oracle for a seeded training
// run over n samples — the exact shuffle the train package's loop
// consumes, computable by every rank without coordination.
func NewAccessOracle(seed uint64, epoch, n int) AccessOracle {
	return train.NewOracle(seed, epoch, n)
}

// PlanOrder enumerates an epoch's global access order from an oracle:
// the path read at every step.
func PlanOrder(o AccessOracle, pathAt func(int) string) []string {
	return core.PlanOrder(o, pathAt)
}

// Simulation API: the Summit substrate used by the evaluation.
type (
	// SimEngine is the discrete-event engine simulated clusters run on.
	SimEngine = sim.Engine
	// SimProc is a simulated process; blocking calls consume virtual time.
	SimProc = sim.Proc
	// SimCluster is a simulated Summit allocation (Table I nodes,
	// Alpine GPFS, EDR fabric).
	SimCluster = summit.Cluster
	// SimHVACOptions configures a simulated HVAC deployment.
	SimHVACOptions = summit.HVACOptions
	// SimHVACJob is a running simulated HVAC deployment.
	SimHVACJob = summit.HVACJob
	// Namespace is a simulated file population (path -> size).
	Namespace = vfs.Namespace
)

// NewSimEngine returns a fresh deterministic simulation engine.
func NewSimEngine() *SimEngine { return sim.NewEngine() }

// NewNamespace returns an empty simulated file namespace.
func NewNamespace() *Namespace { return vfs.NewNamespace() }

// NewSimulatedCluster allocates a simulated Summit cluster of the given
// node count whose GPFS holds ns.
func NewSimulatedCluster(eng *SimEngine, nodes int, ns *Namespace) *SimCluster {
	return summit.NewCluster(eng, nodes, ns)
}

// Experiment reproduces one table or figure of the paper.
type Experiment = experiments.Experiment

// ExperimentOptions controls experiment scale and seeding.
type ExperimentOptions = experiments.Options

// Experiments returns the full registry of reproducible artefacts
// (Table I, Figs. 3-4 and 8-15, plus ablations).
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds one experiment by registry id (e.g. "fig8").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }
