package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hvac/internal/faultnet"
	"hvac/internal/transport"
)

// The live-failover chaos tier (§III-H): a server is killed for good in
// the middle of a training epoch, and the run must finish byte-identical
// with the degradation the replica count predicts — at R=2 entirely from
// the warmed replica caches, at R=1 by falling back to the PFS. Plus the
// tail-latency half of the same machinery: hedged reads racing a hung
// primary, and hedges racing Close under the race detector.

// victimHome picks the server that homes the most files (so the kill has
// real blast radius) and returns its index and file count. Placement is
// basenamePlacement, so the choice is computable before the cluster
// exists and is stable across temp directories.
func victimHome(paths []string, servers int) (victim, count int) {
	perSrv := make([]int, servers)
	for _, p := range paths {
		perSrv[basenamePlacement{}.Place(p, servers)]++
	}
	for i := range perSrv {
		if perSrv[i] > perSrv[victim] {
			victim = i
		}
	}
	return victim, perSrv[victim]
}

// TestChaosKillServerMidEpoch is the tentpole scenario: epoch 1 warms
// the cluster (demand fills forward warm hints to each key's secondary),
// then a Kill schedule takes the busiest server down partway through
// epoch 2 — first mid-read (the handle migrates), then at open time
// (the ladder fails over). At R=2 the surviving replicas serve the rest
// of the epoch from cache: zero PFS fallbacks, zero degrades, zero new
// read-throughs. The R=1 control run on the same shape proves the
// schedule really bites: without a replica the same kill degrades the
// open handle and sends the victim's remaining files back to the PFS.
func TestChaosKillServerMidEpoch(t *testing.T) {
	run := func(t *testing.T, replicas int) (ClientStats, *faultnet.Injector) {
		checkResources(t)
		tc := chaosCase{
			name: "kill-mid-epoch", servers: 4, files: 24, size: 2048,
			epochs: 2, replicas: replicas,
		}
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		paths := writePFS(t, pfsDir, tc.files, tc.size)
		want := make(map[string][]byte, len(paths))
		for _, p := range paths {
			content, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = content
		}

		victim, homed := victimHome(paths, tc.servers)
		if homed < 2 {
			t.Fatalf("victim srv%d homes only %d files; kill-mid-epoch needs at least 2", victim, homed)
		}
		// ReadAll is exactly one OpRead per file per epoch, so the victim
		// answers `homed` reads in epoch 1; killing at index homed+homed/2
		// lands mid-way through its epoch-2 reads — after the warm-up, with
		// victim-homed files still ahead.
		tc.sched = faultnet.Schedule{Seed: 16, Rules: []faultnet.Rule{
			{Server: fmt.Sprintf("srv%d", victim), Op: transport.OpRead,
				Offset: int64(homed + homed/2), Fault: faultnet.Kill},
		}}
		inj := faultnet.New(tc.sched)
		t.Cleanup(inj.Close)
		servers, cli := startChaosCluster(t, pfsDir, tc, inj, nil)
		if replicas > 1 {
			wirePeers(t, servers)
		}

		for _, p := range paths { // epoch 1: fill the primaries, warm the secondaries
			got, err := cli.ReadAll(p)
			if err != nil {
				t.Fatalf("epoch 1: %s: %v", p, err)
			}
			if !bytes.Equal(got, want[p]) {
				t.Fatalf("epoch 1: %s corrupted", p)
			}
		}
		drainFills(servers)
		_, rtWarm := servedTotals(servers)

		for _, p := range paths { // epoch 2: the kill fires mid-epoch
			got, err := cli.ReadAll(p)
			if err != nil {
				t.Fatalf("epoch 2 (kill in flight): %s: %v", p, err)
			}
			if !bytes.Equal(got, want[p]) {
				t.Fatalf("epoch 2: %s corrupted across the kill", p)
			}
		}

		dead := inj.DeadServers()
		if len(dead) != 1 || dead[0] != fmt.Sprintf("srv%d", victim) {
			t.Fatalf("dead servers = %v, want exactly [srv%d]", dead, victim)
		}
		st := cli.Stats()
		if st.HedgeWins > st.Hedges {
			t.Fatalf("hedge wins(%d) exceed hedges(%d)", st.HedgeWins, st.Hedges)
		}
		if replicas > 1 {
			// Served-from-cache fraction of the post-kill epoch: every
			// epoch-2 read — before and after the kill — must be a cache
			// hit, because warming already filled the failover homes.
			_, rtAfter := servedTotals(servers)
			if rtAfter != rtWarm {
				t.Fatalf("%d epoch-2 read-throughs; failover homes were cold despite warming", rtAfter-rtWarm)
			}
		}
		return st, inj
	}

	t.Run("R2-served-from-replicas", func(t *testing.T) {
		st, _ := run(t, 2)
		if st.Fallbacks != 0 {
			t.Fatalf("R=2 kill leaked %d reads to the PFS: %+v", st.Fallbacks, st)
		}
		if st.Failovers == 0 {
			t.Fatalf("kill mid-epoch caused no failovers: %+v", st)
		}
		if st.Degrades != 0 {
			t.Fatalf("R=2 kill degraded %d handles to the PFS instead of migrating them: %+v", st.Degrades, st)
		}
	})
	t.Run("R1-degrades-to-pfs", func(t *testing.T) {
		st, _ := run(t, 1)
		if st.Fallbacks == 0 {
			t.Fatalf("R=1 kill should force PFS fallbacks, got none: %+v", st)
		}
		if st.Degrades == 0 {
			t.Fatalf("R=1 mid-read kill should degrade the open handle: %+v", st)
		}
		if st.Failovers != 0 {
			t.Fatalf("R=1 cannot fail over, yet Failovers=%d: %+v", st.Failovers, st)
		}
	})
}

// A hung primary must not cost the reader the hang timeout: with
// HedgeAfter armed, the replica answers while the primary is still
// stuck, and the win is visible in HedgeWins.
func TestChaosHedgedReadBeatsHungPrimary(t *testing.T) {
	checkResources(t)
	const (
		hangFor    = 400 * time.Millisecond
		hedgeAfter = 25 * time.Millisecond
	)
	tc := chaosCase{
		name: "hedge-hang", servers: 2, files: 4, size: 2048, epochs: 1, replicas: 2,
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	target := paths[0]
	want, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	primary := basenamePlacement{}.Place(target, tc.servers)
	// Every data read at the target's primary hangs for hangFor; opens
	// and closes stay healthy so only the hedge can rescue the read.
	tc.sched = faultnet.Schedule{Seed: 20, HangTimeout: hangFor, Rules: []faultnet.Rule{
		{Server: fmt.Sprintf("srv%d", primary), Op: transport.OpRead, Fault: faultnet.Hang},
	}}
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, func(c *ClientConfig) {
		c.HedgeAfter = hedgeAfter
	})

	start := time.Now()
	got, err := cli.ReadAll(target)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hedged read returned wrong bytes")
	}
	// The primary releases its hang only after hangFor; finishing well
	// before that proves the hedge (HedgeAfter + one replica RTT + a PFS
	// read-through) carried the result.
	if elapsed >= hangFor*3/4 {
		t.Fatalf("read took %v; the hedge should finish in ~%v, far below the %v hang", elapsed, hedgeAfter, hangFor)
	}
	st := cli.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hung primary produced no hedge win: %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("hedge path fell back to the PFS: %+v", st)
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the case is vacuous")
	}
}

// Race-stress (run under -race by the check gate): aggressive hedging
// racing File.Close and slow/refused calls must neither leak pooled
// response frames nor double-release them. The invariants are the
// HedgeWins<=Hedges identity, CheckLeaks at teardown, and the race
// detector itself; individual read errors are tolerated.
func TestChaosHedgeRaceWithClose(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "hedge-race", servers: 2, files: 8, size: 4096, epochs: 1, replicas: 2,
		sched: faultnet.Schedule{Seed: 21, Rules: []faultnet.Rule{
			{Op: transport.OpRead, Prob: 0.4, Fault: faultnet.Delay, Delay: 2 * time.Millisecond},
			{Op: transport.OpOpen, Prob: 0.2, Fault: faultnet.Refuse},
		}},
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, func(c *ClientConfig) {
		// Far below the injected delays: most slowed reads fire a hedge.
		c.HedgeAfter = 200 * time.Microsecond
	})

	const workers, iters = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, tc.size)
			for i := 0; i < iters; i++ {
				f, err := cli.Open(paths[(g+i)%len(paths)])
				if err != nil {
					continue
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					_, _ = f.ReadAt(buf, 0) // may race the Close below
				}()
				if i%2 == 0 {
					_ = f.Close()
				}
				<-done
				_ = f.Close() // idempotent
			}
		}(g)
	}
	wg.Wait()

	st := cli.Stats()
	if st.HedgeWins > st.Hedges {
		t.Fatalf("hedge wins(%d) exceed hedges(%d)", st.HedgeWins, st.Hedges)
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the case is vacuous")
	}
}

// The same hedging storm over multi-chunk files. A hedged read's rungs can
// overlap, so a loser may still be receiving after the winner returned:
// such reads must come through pooled frames and a copy, never land in the
// caller's buffer (DESIGN.md §3.1). Each worker overwrites its buffer the
// moment ReadAt returns — a rung still writing caller memory is then a
// data race the detector reports — and checks after Client.Close, which
// joins every loser, that its own bytes are what the buffer still holds.
func TestChaosHedgedBulkReadLeavesCallerMemoryAlone(t *testing.T) {
	tc := chaosCase{
		name: "hedge-bulk", servers: 2, files: 4, size: 2*bulkChunk + bulkChunk/2, epochs: 1, replicas: 2,
		sched: faultnet.Schedule{Seed: 22, Rules: []faultnet.Rule{
			{Op: transport.OpRead, Prob: 0.4, Fault: faultnet.Delay, Delay: 2 * time.Millisecond},
		}},
	}
	checkResources(t)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePatternPFS(t, pfsDir, tc.files, tc.size)
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, func(c *ClientConfig) {
		// Far below the injected delays: most slowed chunks fire a hedge.
		c.HedgeAfter = 200 * time.Microsecond
	})

	const workers, iters = 4, 3
	bufs := make([][]byte, workers)
	var wg sync.WaitGroup
	for g := range bufs {
		bufs[g] = make([]byte, tc.size)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := paths[(g+i)%len(paths)]
				want, err := os.ReadFile(p)
				if err != nil {
					t.Error(err)
					return
				}
				f, err := cli.Open(p)
				if err != nil {
					t.Error(err)
					return
				}
				n, err := f.ReadAt(bufs[g], 0)
				if err != nil || n != tc.size || !bytes.Equal(bufs[g], want) {
					t.Errorf("hedged bulk read of %s = (%d, %v), bytes equal %v", p, n, err, bytes.Equal(bufs[g], want))
				}
				for j := range bufs[g] {
					bufs[g][j] = byte(g) // the buffer is the caller's again
				}
				_ = f.Close()
			}
		}()
	}
	wg.Wait()
	cli.Close() // joins the loser drains; idempotent with the cleanup's Close
	for g, buf := range bufs {
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(g)}, len(buf))) {
			t.Fatalf("worker %d: its buffer changed after ReadAt returned", g)
		}
	}
	st := cli.Stats()
	if st.Hedges == 0 {
		t.Fatalf("no hedge fired; the case is vacuous: %+v", st)
	}
	if st.HedgeWins > st.Hedges {
		t.Fatalf("hedge wins(%d) exceed hedges(%d)", st.HedgeWins, st.Hedges)
	}
}

// Every committed schedule must be stats-deterministic, not just
// trace-deterministic: two full runs of the same workload over the same
// PFS tree under the same schedule produce bit-identical client stats.
// This is what makes a chaos failure replayable down to its counters.
func TestChaosStatsReplayBitIdentical(t *testing.T) {
	for _, tc := range chaosMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			checkResources(t)
			pfsDir := filepath.Join(t.TempDir(), "dataset")
			paths := writePFS(t, pfsDir, tc.files, tc.size)
			run := func() ClientStats {
				inj := faultnet.New(tc.sched)
				defer inj.Close()
				servers, cli := startChaosCluster(t, pfsDir, tc, inj, nil)
				for e := 0; e < tc.epochs; e++ {
					for _, p := range paths {
						if _, err := cli.ReadAll(p); err != nil {
							t.Fatalf("epoch %d: %s: %v", e, p, err)
						}
					}
					if _, err := cli.ReadBatch(paths); err != nil {
						t.Fatalf("epoch %d: batch: %v", e, err)
					}
				}
				stopCluster(servers, cli)
				return cli.Stats()
			}
			s1, s2 := run(), run()
			if s1 != s2 {
				t.Fatalf("same schedule, different stats across runs:\nrun1: %+v\nrun2: %+v", s1, s2)
			}
		})
	}
}
