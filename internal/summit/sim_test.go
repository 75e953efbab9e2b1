package summit

import (
	"fmt"
	"testing"
	"time"

	"hvac/internal/cachestore"
	"hvac/internal/device"
	"hvac/internal/pfs"
	"hvac/internal/sim"
	"hvac/internal/simnet"
	"hvac/internal/vfs"
)

// simRig is a minimal simulated HVAC deployment for tests.
type simRig struct {
	eng     *sim.Engine
	fabric  *simnet.Fabric
	gpfs    *pfs.GPFS
	devs    []*device.Device
	servers []*SimServer
	clients []*SimClient
	ns      *vfs.Namespace
}

func newSimRig(nodes, instancesPerNode, files int, fileSize int64, capacityPerInstance int64) *simRig {
	eng := sim.NewEngine()
	fabric := simnet.New(eng, simnet.SummitEDR(), nodes)
	ns := vfs.NewNamespace()
	for i := 0; i < files; i++ {
		ns.Add(fmt.Sprintf("/gpfs/dataset/f%06d", i), fileSize)
	}
	g := pfs.New(eng, pfs.Alpine(), ns)
	r := &simRig{eng: eng, fabric: fabric, gpfs: g, ns: ns}
	costs := defaultSimCosts()
	for n := 0; n < nodes; n++ {
		dev := device.New(eng, fmt.Sprintf("nvme%d", n), device.SummitNVMe())
		r.devs = append(r.devs, dev)
		for k := 0; k < instancesPerNode; k++ {
			seed := uint64(n*1000 + k)
			srv := newSimServer(eng, simnet.NodeID(n), fabric, g, dev,
				capacityPerInstance, cachestore.NewRandom(seed), costs)
			r.servers = append(r.servers, srv)
		}
	}
	for n := 0; n < nodes; n++ {
		r.clients = append(r.clients, newSimClient(simnet.NodeID(n), fabric,
			r.servers, 1, g, costs))
	}
	return r
}

func (r *simRig) paths() []string { return r.ns.Paths() }

func TestSimReadThrough(t *testing.T) {
	r := newSimRig(4, 1, 32, 163<<10, 1<<30)
	var epoch1, epoch2 sim.Time
	r.eng.Spawn("job", func(p *sim.Proc) {
		for _, path := range r.paths() {
			n, err := vfs.ReadFile(p, r.clients[0], path)
			if err != nil || n != 163<<10 {
				t.Errorf("read %s = %d, %v", path, n, err)
				return
			}
		}
		epoch1 = p.Now()
		for _, path := range r.paths() {
			if _, err := vfs.ReadFile(p, r.clients[0], path); err != nil {
				t.Error(err)
				return
			}
		}
		epoch2 = p.Now() - epoch1
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if epoch2 >= epoch1 {
		t.Fatalf("cached epoch (%v) not faster than cold epoch (%v)", time.Duration(epoch2), time.Duration(epoch1))
	}
	var misses, hits int64
	cached := 0
	for _, s := range r.servers {
		st := s.Stats()
		misses += st.Misses
		hits += st.Hits
		cached += s.index.Len()
	}
	if misses != 32 {
		t.Fatalf("misses = %d, want 32 (one per file)", misses)
	}
	if cached != 32 {
		t.Fatalf("cached files = %d, want 32", cached)
	}
	if hits != 32 {
		t.Fatalf("hits = %d, want 32 (epoch-2 opens served from cache)", hits)
	}
}

func TestSimGPFSTouchedOnlyInFirstEpoch(t *testing.T) {
	r := newSimRig(2, 1, 16, 100<<10, 1<<30)
	r.eng.Spawn("job", func(p *sim.Proc) {
		for e := 0; e < 3; e++ {
			for _, path := range r.paths() {
				vfs.ReadFile(p, r.clients[0], path)
			}
			if e == 0 {
				opens, _, _ := r.gpfs.Stats()
				if opens != 16 {
					t.Errorf("epoch1 GPFS opens = %d, want 16", opens)
				}
			}
		}
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	opens, _, bytes := r.gpfs.Stats()
	if opens != 16 {
		t.Fatalf("GPFS opens after 3 epochs = %d, want 16 (epoch 1 only)", opens)
	}
	if bytes != 16*(100<<10) {
		t.Fatalf("GPFS bytes = %d", bytes)
	}
}

func TestSimLocalVsRemoteAccounting(t *testing.T) {
	r := newSimRig(4, 1, 64, 10<<10, 1<<30)
	client := r.clients[1]
	r.eng.Spawn("job", func(p *sim.Proc) {
		for _, path := range r.paths() {
			vfs.ReadFile(p, client, path)
		}
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.Opens != 64 {
		t.Fatalf("opens = %d", st.Opens)
	}
	if st.LocalOpens+st.RemoteOpens != st.Opens {
		t.Fatalf("local(%d)+remote(%d) != opens(%d)", st.LocalOpens, st.RemoteOpens, st.Opens)
	}
	if st.LocalOpens == 0 || st.RemoteOpens == 0 {
		t.Fatalf("expected a mix of local and remote homes, got %d/%d", st.LocalOpens, st.RemoteOpens)
	}
}

func TestSimSingleCopyUnderConcurrency(t *testing.T) {
	r := newSimRig(4, 1, 1, 1<<20, 1<<30)
	for n := 0; n < 4; n++ {
		client := r.clients[n]
		r.eng.Spawn("proc", func(p *sim.Proc) {
			if _, err := vfs.ReadFile(p, client, r.paths()[0]); err != nil {
				t.Error(err)
			}
		})
	}
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	var misses int64
	for _, s := range r.servers {
		misses += s.Stats().Misses
	}
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (single copy to the cache)", misses)
	}
	// Concurrent first reads are served read-through, so each reader may
	// touch GPFS once — but never more than the reader count, and the
	// copy itself adds no extra metadata transaction (tee semantics).
	opens, _, _ := r.gpfs.Stats()
	if opens < 1 || opens > 4 {
		t.Fatalf("GPFS opens = %d, want 1..4 (one per concurrent read-through)", opens)
	}
}

func TestSimEvictionUnderPressure(t *testing.T) {
	// Capacity per instance fits 4 of 16 files homed there on average.
	r := newSimRig(1, 1, 16, 1<<20, 4<<20)
	r.eng.Spawn("job", func(p *sim.Proc) {
		for e := 0; e < 3; e++ {
			for _, path := range r.paths() {
				if _, err := vfs.ReadFile(p, r.clients[0], path); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := r.servers[0].Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if r.servers[0].index.Used() > 4<<20 {
		t.Fatalf("cache over capacity: %d", r.servers[0].index.Used())
	}
	if st.Misses <= 16 {
		t.Fatalf("misses = %d; re-fetches expected after eviction", st.Misses)
	}
}

func TestSimServerFailureFallsBackToGPFS(t *testing.T) {
	r := newSimRig(2, 1, 8, 64<<10, 1<<30)
	r.servers[1].Fail()
	client := r.clients[0]
	r.eng.Spawn("job", func(p *sim.Proc) {
		for _, path := range r.paths() {
			if _, err := vfs.ReadFile(p, client, path); err != nil {
				t.Errorf("read %s: %v", path, err)
			}
		}
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.Fallbacks == 0 {
		t.Fatal("no fallbacks despite failed server")
	}
	if st.Fallbacks+r.servers[0].Stats().Hits == 0 {
		t.Fatal("nothing served")
	}
}

func TestSimReplicaFailover(t *testing.T) {
	eng := sim.NewEngine()
	fabric := simnet.New(eng, simnet.SummitEDR(), 3)
	ns := vfs.NewNamespace()
	for i := 0; i < 12; i++ {
		ns.Add(fmt.Sprintf("/gpfs/d/f%03d", i), 32<<10)
	}
	g := pfs.New(eng, pfs.Alpine(), ns)
	costs := defaultSimCosts()
	var servers []*SimServer
	for n := 0; n < 3; n++ {
		dev := device.New(eng, fmt.Sprintf("nvme%d", n), device.SummitNVMe())
		servers = append(servers, newSimServer(eng, simnet.NodeID(n), fabric, g, dev, 1<<30, nil, costs))
	}
	client := newSimClient(0, fabric, servers, 2, nil, costs) // replicas=2, NO fallback
	servers[1].Fail()
	eng.Spawn("job", func(p *sim.Proc) {
		for _, path := range ns.Paths() {
			if _, err := vfs.ReadFile(p, client, path); err != nil {
				t.Errorf("read %s: %v", path, err)
			}
		}
	})
	if err := eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if client.Stats().Failovers == 0 {
		t.Fatal("no failovers despite dead primary for some files")
	}
	if client.Stats().Fallbacks != 0 {
		t.Fatal("fallback without GPFS client configured")
	}
}

func TestSimDeterministicReplay(t *testing.T) {
	run := func() sim.Time {
		r := newSimRig(3, 2, 24, 80<<10, 1<<30)
		var end sim.Time
		for n := 0; n < 3; n++ {
			client := r.clients[n]
			r.eng.Spawn("job", func(p *sim.Proc) {
				for e := 0; e < 2; e++ {
					for _, path := range r.paths() {
						vfs.ReadFile(p, client, path)
					}
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
		if err := r.eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestSimForcedPlacementFig13Hook(t *testing.T) {
	r := newSimRig(2, 1, 32, 16<<10, 1<<30)
	client := r.clients[0]
	client.SetPlacement(func(path string) int { return 0 }) // all local
	r.eng.Spawn("job", func(p *sim.Proc) {
		for _, path := range r.paths() {
			vfs.ReadFile(p, client, path)
		}
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := client.Stats()
	if st.RemoteOpens != 0 || st.LocalOpens != 32 {
		t.Fatalf("forced-local placement: local=%d remote=%d", st.LocalOpens, st.RemoteOpens)
	}
}

func TestSimPrefetchPopulatesCache(t *testing.T) {
	r := newSimRig(2, 1, 16, 128<<10, 1<<30)
	client := r.clients[0]
	r.eng.Spawn("prefetcher", func(p *sim.Proc) {
		client.prefetch(p, r.paths())
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, s := range r.servers {
		cached += s.index.Len()
	}
	if cached != 16 {
		t.Fatalf("cached = %d after prefetch, want 16", cached)
	}
	// Reads after prefetch are hits: epoch 1 is already warm.
	r.eng.Spawn("reader", func(p *sim.Proc) {
		for _, path := range r.paths() {
			vfs.ReadFile(p, client, path)
		}
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	var hits int64
	for _, s := range r.servers {
		hits += s.Stats().Hits
	}
	if hits != 16 {
		t.Fatalf("hits = %d, want 16 (all reads warm)", hits)
	}
}

func TestSimPrefetchIdempotent(t *testing.T) {
	r := newSimRig(2, 1, 8, 64<<10, 1<<30)
	client := r.clients[0]
	r.eng.Spawn("p", func(p *sim.Proc) {
		client.prefetch(p, r.paths())
		client.prefetch(p, r.paths()) // second pass must not re-copy
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	var misses int64
	for _, s := range r.servers {
		misses += s.Stats().Misses
	}
	if misses != 8 {
		t.Fatalf("misses = %d, want 8 (prefetch copies once)", misses)
	}
}

func TestSimPrefetchSkipsFailedServer(t *testing.T) {
	r := newSimRig(2, 1, 8, 64<<10, 1<<30)
	r.servers[1].Fail()
	client := r.clients[0]
	r.eng.Spawn("p", func(p *sim.Proc) {
		client.prefetch(p, r.paths()) // must not error or deadlock
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if r.servers[1].index.Len() != 0 {
		t.Fatal("failed server cached files")
	}
}

func TestSimSegmentedReads(t *testing.T) {
	r := newSimRig(4, 1, 4, 10<<20, 1<<30) // 10 MB files
	client := r.clients[0]
	client.setSegmentSize(1 << 20) // 1 MB segments -> 10 per file
	r.eng.Spawn("job", func(p *sim.Proc) {
		for e := 0; e < 2; e++ {
			for _, path := range r.paths() {
				n, err := vfs.ReadFile(p, client, path)
				if err != nil || n != 10<<20 {
					t.Errorf("segmented read = %d, %v", n, err)
					return
				}
			}
		}
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	totalSegs, serversUsed := 0, 0
	var hits int64
	for _, s := range r.servers {
		if n := s.index.Len(); n > 0 {
			serversUsed++
			totalSegs += n
		}
		hits += s.Stats().Hits
	}
	if totalSegs != 40 {
		t.Fatalf("cached segments = %d, want 40 (4 files x 10)", totalSegs)
	}
	if serversUsed < 3 {
		t.Fatalf("segments concentrated on %d servers", serversUsed)
	}
	if hits != 40 {
		t.Fatalf("warm-epoch segment hits = %d, want 40", hits)
	}
}

// Segment-level caching spreads a single huge file's load over every
// server; file-level homing pins it to one (§III-E's motivation).
func TestSimSegmentSpreadsHotFile(t *testing.T) {
	fileLevel := func(seg bool) int {
		rr := newSimRig(4, 1, 1, 64<<20, 1<<30)
		cl := rr.clients[0]
		if seg {
			cl.setSegmentSize(4 << 20)
		}
		rr.eng.Spawn("j", func(p *sim.Proc) {
			vfs.ReadFile(p, cl, rr.paths()[0])
		})
		if err := rr.eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		used := 0
		for _, s := range rr.servers {
			if s.index.Len() > 0 {
				used++
			}
		}
		return used
	}
	if u := fileLevel(false); u != 1 {
		t.Fatalf("file-level homing used %d servers, want 1", u)
	}
	if u := fileLevel(true); u < 3 {
		t.Fatalf("segment-level homing used %d servers, want >= 3", u)
	}
}

// A server failing MID-TRAINING must not lose data or stall the job: the
// remaining reads fall back to GPFS.
func TestSimFailureMidRun(t *testing.T) {
	r := newSimRig(4, 1, 64, 100<<10, 1<<30)
	client := r.clients[0]
	var readsDone int
	r.eng.Spawn("job", func(p *sim.Proc) {
		for e := 0; e < 3; e++ {
			for _, path := range r.paths() {
				if _, err := vfs.ReadFile(p, client, path); err != nil {
					t.Errorf("read %s: %v", path, err)
					return
				}
				readsDone++
			}
		}
	})
	// Kill a server partway through epoch 2.
	r.eng.Spawn("chaos", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		r.servers[2].Fail()
	})
	if err := r.eng.RunAll(); err != nil {
		t.Fatal(err)
	}
	if readsDone != 3*64 {
		t.Fatalf("completed %d reads, want %d", readsDone, 3*64)
	}
	if client.Stats().Fallbacks == 0 {
		t.Fatal("no fallbacks despite a mid-run server failure")
	}
}

// Instance scaling: with the same offered load, 4 instances per node keep
// mover queueing lower than 1 instance — the Fig. 9b mechanism.
func TestSimInstanceScalingReducesTime(t *testing.T) {
	elapsed := func(instances int) time.Duration {
		r := newSimRig(2, instances, 128, 163<<10, 1<<30)
		var end sim.Time
		for n := 0; n < 2; n++ {
			for j := 0; j < 2; j++ { // two loader procs per node
				client := r.clients[n]
				start := n*64 + j*32
				r.eng.Spawn("loader", func(p *sim.Proc) {
					paths := r.paths()
					for e := 0; e < 3; e++ {
						for i := 0; i < len(paths); i++ {
							vfs.ReadFile(p, client, paths[(start+i)%len(paths)])
						}
					}
					if p.Now() > end {
						end = p.Now()
					}
				})
			}
		}
		if err := r.eng.RunAll(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(end)
	}
	t1 := elapsed(1)
	t4 := elapsed(4)
	if t4 >= t1 {
		t.Fatalf("4 instances (%v) not faster than 1 (%v)", t4, t1)
	}
}
