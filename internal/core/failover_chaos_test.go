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
// replica ladder walking slow and refused links while File.Close races
// its reads, and landing multi-chunk reads in the caller's buffer over
// dropped links, under the race detector.

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

// A hung primary costs the reader one hang and no more: the ladder waits
// out the stuck rung, then the replica serves the read and the handle
// migrates there — no PFS fallback, no degrade. The hang is the price of
// a sequential ladder (DESIGN.md §3.3).
func TestChaosHungPrimaryReadFailsOver(t *testing.T) {
	checkResources(t)
	const hangFor = 50 * time.Millisecond
	tc := chaosCase{
		name: "hung-primary", servers: 2, files: 4, size: 2048, epochs: 1, replicas: 2,
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	target := paths[0]
	want, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	primary := basenamePlacement{}.Place(target, tc.servers)
	// Every data read at the target's primary hangs; opens and closes stay
	// healthy, so the open lands there and only the ladder can rescue the
	// read.
	tc.sched = faultnet.Schedule{Seed: 20, HangTimeout: hangFor, Rules: []faultnet.Rule{
		{Server: fmt.Sprintf("srv%d", primary), Op: transport.OpRead, Fault: faultnet.Hang},
	}}
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, nil)

	start := time.Now()
	got, err := cli.ReadAll(target)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("read past a hung primary: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read past a hung primary returned wrong bytes")
	}
	if elapsed < hangFor {
		t.Fatalf("read took %v, less than the %v hang: the stuck rung was not waited out", elapsed, hangFor)
	}
	if st := cli.Stats(); st.Failovers != 1 || st.Fallbacks != 0 || st.Degrades != 0 {
		t.Fatalf("stats = %+v, want one failover and no PFS read", st)
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the case is vacuous")
	}
}

// Race-stress (run under -race by the check gate): the replica ladder
// walking slow and refused links while File.Close races the reads must
// neither leak pooled response frames, handles or goroutines nor
// double-release a frame. Reads delayed past a concurrent Close, opens
// refused on one replica and answered by the next, and handles adopted
// by a File that closed meanwhile all meet here. The invariants are
// checkResources at teardown, the race detector itself, and the PFS bytes
// for every read that succeeds; a read that loses the race to its Close
// may fail.
func TestChaosLadderRaceWithClose(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "ladder-race", servers: 2, files: 8, size: 4096, epochs: 1, replicas: 2,
		sched: faultnet.Schedule{Seed: 21, Rules: []faultnet.Rule{
			{Op: transport.OpRead, Prob: 0.4, Fault: faultnet.Delay, Delay: 2 * time.Millisecond},
			{Op: transport.OpOpen, Prob: 0.2, Fault: faultnet.Refuse},
		}},
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
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, nil)

	const workers, iters = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, tc.size)
			for i := 0; i < iters; i++ {
				p := paths[(g+i)%len(paths)]
				f, err := cli.Open(p)
				if err != nil {
					continue
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					// May race the Close below.
					if n, err := f.ReadAt(buf, 0); err == nil && !bytes.Equal(buf[:n], want[p]) {
						t.Errorf("read of %s under the ladder returned wrong bytes", p)
					}
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

	if st := cli.Stats(); st.Failovers == 0 {
		t.Fatalf("no open or read walked past its first rung; the case is vacuous: %+v", st)
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the case is vacuous")
	}
}

// The replica ladder over multi-chunk files. Every pipeline chunk and
// every rung receives into the caller's buffer (Request.Dst), a rung whose
// link dropped after its bytes arrived included, so what keeps a recycled
// buffer intact is that the pipeline joins its workers and the rungs run
// one after another: nothing writes into it after ReadAt returns
// (DESIGN.md §3.4). Each worker overwrites its buffer the moment ReadAt
// returns — a chunk or rung still writing caller memory is then a data
// race the detector reports — and checks after Client.Close that its own
// bytes are what the buffer still holds.
func TestChaosLadderBulkReadLeavesCallerMemoryAlone(t *testing.T) {
	tc := chaosCase{
		name: "ladder-bulk", servers: 2, files: 4, size: 2*bulkChunk + bulkChunk/2, epochs: 1, replicas: 2,
		sched: faultnet.Schedule{Seed: 22, Rules: []faultnet.Rule{
			{Op: transport.OpRead, Prob: 0.5, Fault: faultnet.Disconnect},
			{Op: transport.OpRead, Prob: 0.4, Fault: faultnet.Delay, Delay: 2 * time.Millisecond},
		}},
	}
	checkResources(t)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePatternPFS(t, pfsDir, tc.files, tc.size)
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, nil)

	const workers, iters = 4, 4
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
					t.Errorf("bulk read of %s under the ladder = (%d, %v), bytes equal %v", p, n, err, bytes.Equal(bufs[g], want))
				}
				for j := range bufs[g] {
					bufs[g][j] = byte(g) // the buffer is the caller's again
				}
				_ = f.Close()
			}
		}()
	}
	wg.Wait()
	cli.Close() // idempotent with the cleanup's Close
	for g, buf := range bufs {
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(g)}, len(buf))) {
			t.Fatalf("worker %d: its buffer changed after ReadAt returned", g)
		}
	}
	if st := cli.Stats(); st.Failovers == 0 {
		t.Fatalf("no read walked past its first rung; the case is vacuous: %+v", st)
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the case is vacuous")
	}
}

// ladderCall is the client's one failover shape (§III-H): the rungs run
// one at a time in order, the first answer — a response or an application
// error — ends the ladder before a later rung starts, a transport failure
// moves on, and when every rung fails the last failure is the result.
func TestLadderCallRunsRungsInOrder(t *testing.T) {
	const (
		answer  = iota // the rung returns a response
		down           // a transport failure
		refused        // an application error
	)
	cases := []struct {
		name       string
		rungs      []int
		wantRan    int
		wantLadder int
		wantResp   bool
	}{
		{"first answers", []int{answer, answer}, 1, 0, true},
		{"failure moves on", []int{down, answer}, 2, 1, true},
		{"application error stops", []int{refused, answer}, 1, 0, false},
		{"failure then application error", []int{down, refused, answer}, 2, 1, false},
		{"every rung fails", []int{down, down, down}, 3, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ran, running := 0, 0
			rungs := make([]func() rungResult, len(tc.rungs))
			for i, kind := range tc.rungs {
				rungs[i] = func() rungResult {
					running++
					defer func() { running-- }()
					if running != 1 {
						t.Errorf("rung %d started while %d rungs ran", i, running-1)
					}
					ran++
					switch kind {
					case answer:
						return rungResult{resp: transport.AcquireResponse(), ladder: i, srv: i}
					case refused:
						return rungResult{err: fmt.Errorf("rung %d refused", i), ladder: i, srv: i, appErr: true}
					default:
						return rungResult{err: fmt.Errorf("rung %d down", i), ladder: i, srv: i}
					}
				}
			}
			r := ladderCall(rungs)
			if r.resp != nil {
				r.resp.Release()
			}
			if ran != tc.wantRan || r.ladder != tc.wantLadder || (r.resp != nil) != tc.wantResp {
				t.Fatalf("ran %d rungs, result from rung %d (response %v), want %d, %d (%v)",
					ran, r.ladder, r.resp != nil, tc.wantRan, tc.wantLadder, tc.wantResp)
			}
			if !tc.wantResp && r.err == nil {
				t.Fatal("the ladder failed without an error")
			}
		})
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
