// Package hvac is a Go implementation and simulation study of HVAC
// ("High-Velocity AI Cache"), the distributed read-only cache layer for
// large-scale deep-learning training described in:
//
//	Khan et al., "HVAC: Removing I/O Bottleneck for Large-Scale Deep
//	Learning Applications", IEEE CLUSTER 2022 (ORNL).
//
// The package is the real client/server cache you can run on any machine
// or cluster: StartServer launches an HVAC server that caches files from a
// PFS-visible directory onto fast local storage; NewClient gives
// applications a transparent read path that hashes each file to its home
// server (no metadata service), with PFS fallback on failure. This is the
// paper's system with the LD_PRELOAD interposition replaced by a Go
// interception API (see DESIGN.md). The simulated Summit that regenerates
// the paper's evaluation is internal; cmd/hvacbench runs it.
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
	"hvac/internal/transport"
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

// EvictionPolicy decides cache victims (§III-G).
type EvictionPolicy = cachestore.Policy

// RandomEviction returns the paper's random eviction policy.
func RandomEviction(seed uint64) EvictionPolicy { return cachestore.NewRandom(seed) }

// LRUEviction returns least-recently-used eviction.
func LRUEviction() EvictionPolicy { return cachestore.NewLRU() }

// FIFOEviction returns insertion-order eviction.
func FIFOEviction() EvictionPolicy { return cachestore.NewFIFO() }

// KeepEviction returns the never-evict policy: a cache smaller than the
// dataset keeps the files it admitted first and serves the rest from the
// PFS, the best hit rate a fresh shuffle every epoch allows.
func KeepEviction() EvictionPolicy { return cachestore.NewKeep() }
