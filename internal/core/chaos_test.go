package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hvac/internal/cachestore"
	"hvac/internal/faultnet"
	"hvac/internal/place"
	"hvac/internal/slab"
	"hvac/internal/transport"
)

// The chaos tier: real TCP client/server clusters driven under seeded
// fault schedules (internal/faultnet), asserting the §III-H resilience
// invariants the paper claims but the hand-rolled failure tests barely
// touch:
//
//  1. every successful read is byte-identical to the PFS copy —
//     including reads through the batched OpReadBatch path;
//  2. the accounting identity holds — client side, every open lands in
//     exactly one of Redirected (which includes Failovers) or Fallbacks,
//     and every batch entry in exactly one of BatchReads or
//     BatchFallbacks; server side, every served open and batch entry is
//     exactly one of Hit or ReadThrough;
//  3. teardown leaks no goroutines;
//  4. with DisableFallback, the error chain names the failing server.
//
// Each schedule is seeded, so a failing run replays bit-for-bit.

// chaosCase is one cell of the schedule matrix.
type chaosCase struct {
	name     string
	servers  int
	files    int
	size     int
	epochs   int
	replicas int
	capacity int64                    // cache capacity per server (0 = unconstrained)
	policy   func() cachestore.Policy // per-server eviction policy (nil = default)
	network  string                   // the clients' socket: "local", "tcp", or "" for the default (dialOver)
	sched    faultnet.Schedule
}

// chaosMatrix is the full fault-schedule matrix `make chaos` runs; the
// check gate runs it too (small files keep it cheap).
func chaosMatrix() []chaosCase {
	return []chaosCase{
		{
			name: "refuse-one-server", servers: 3, files: 18, size: 1024, epochs: 2,
			sched: faultnet.Schedule{Seed: 1, Rules: []faultnet.Rule{
				{Server: "srv0", Fault: faultnet.Refuse},
			}},
		},
		{
			name: "refuse-every-third-open", servers: 2, files: 12, size: 512, epochs: 2,
			sched: faultnet.Schedule{Seed: 2, Rules: []faultnet.Rule{
				{Op: transport.OpOpen, Every: 3, Fault: faultnet.Refuse},
			}},
		},
		{
			name: "disconnect-mid-call", servers: 2, files: 12, size: 2048, epochs: 2,
			sched: faultnet.Schedule{Seed: 3, Rules: []faultnet.Rule{
				{Op: transport.OpRead, Every: 4, Fault: faultnet.Disconnect},
			}},
		},
		{
			name: "truncated-frames", servers: 2, files: 10, size: 4096, epochs: 2,
			sched: faultnet.Schedule{Seed: 4, Rules: []faultnet.Rule{
				{Prob: 0.2, Fault: faultnet.Truncate},
			}},
		},
		{
			name: "corrupted-frames", servers: 2, files: 10, size: 4096, epochs: 2,
			sched: faultnet.Schedule{Seed: 5, Rules: []faultnet.Rule{
				{Prob: 0.2, Fault: faultnet.Corrupt},
			}},
		},
		{
			name: "slow-server", servers: 2, files: 8, size: 512, epochs: 1,
			sched: faultnet.Schedule{Seed: 6, Rules: []faultnet.Rule{
				{Server: "srv1", Every: 2, Fault: faultnet.Delay, Delay: 2 * time.Millisecond},
			}},
		},
		{
			name: "hung-server", servers: 2, files: 6, size: 256, epochs: 1,
			sched: faultnet.Schedule{Seed: 7, HangTimeout: 20 * time.Millisecond, Rules: []faultnet.Rule{
				{Server: "srv0", Op: transport.OpOpen, Every: 2, Fault: faultnet.Hang},
			}},
		},
		{
			name: "replica-failover", servers: 3, files: 18, size: 1024, epochs: 2, replicas: 2,
			sched: faultnet.Schedule{Seed: 8, Rules: []faultnet.Rule{
				{Server: "srv1", Fault: faultnet.Refuse},
			}},
		},
		{
			// Faults aimed squarely at OpReadBatch: refused calls burn the
			// retry budget and then degrade the whole chunk to per-file
			// reads; truncated response frames exercise the batch decode
			// error path. Either way the batch must come back intact.
			name: "batch-faults", servers: 3, files: 18, size: 1024, epochs: 2,
			sched: faultnet.Schedule{Seed: 14, Rules: []faultnet.Rule{
				{Op: transport.OpReadBatch, Every: 2, Fault: faultnet.Refuse},
				{Op: transport.OpReadBatch, Prob: 0.3, Fault: faultnet.Truncate},
			}},
		},
		{
			// Batch replies whose entries, 24 KiB and resident after the
			// epoch's reads, leave as their cache files' descriptors on
			// the local socket (from the floor, 8 KiB). Every other batch
			// call's link dies once the reply has arrived — descriptors
			// received, entries landed — and others are truncated or
			// corrupted: the server must release every passed lease (no
			// cache file's descriptor outlives the run) and the client
			// every landed buffer and response.
			name: "batch-passed", servers: 2, files: 12, size: 24 << 10, epochs: 3,
			sched: faultnet.Schedule{Seed: 19, Rules: []faultnet.Rule{
				{Op: transport.OpReadBatch, Every: 2, Fault: faultnet.Disconnect},
				{Op: transport.OpReadBatch, Prob: 0.2, Fault: faultnet.Truncate},
				{Op: transport.OpReadBatch, Prob: 0.2, Fault: faultnet.Corrupt},
			}},
		},
		{
			// A server crashes for good mid-run: the 3rd open on srv0
			// trips the Kill and every later call to it — any op — fails.
			// With R=2 its files fail over to live replicas; nothing falls
			// back to the PFS and the bytes stay identical.
			name: "kill-one-server", servers: 3, files: 18, size: 1024, epochs: 2, replicas: 2,
			sched: faultnet.Schedule{Seed: 16, Rules: []faultnet.Rule{
				{Server: "srv0", Op: transport.OpOpen, Offset: 2, Fault: faultnet.Kill},
			}},
		},
		{
			// A server turns permanently slow (no Every/Prob: the rule
			// fires on every matching call from Offset on) — the paper's
			// straggler, not a crash. Everything still completes and
			// accounts correctly. Nothing hides the slowness: the ladder
			// moves on only when a rung fails (DESIGN.md §3.3).
			name: "permanently-slow", servers: 2, files: 12, size: 512, epochs: 2,
			sched: faultnet.Schedule{Seed: 17, Rules: []faultnet.Rule{
				{Server: "srv1", Offset: 2, Fault: faultnet.Delay, Delay: 2 * time.Millisecond},
			}},
		},
		{
			// The bulk pipeline under faults: files of 2.25 chunks, so every
			// ReadAll keeps two chunk RPCs in flight and ends on a partial
			// one. On the local socket the two whole chunks are passed as
			// descriptors and the partial one, shorter than the descriptor
			// plane's 256 KiB minimum, leaves by sendfile, so the row serves
			// from both fd planes. Every 7th OpRead on a link fails, the fault kind rotating
			// through disconnect, truncate, corrupt and hang. A file costs at
			// most six OpReads (three pipelined, three re-read by the
			// sequential loop), so no file sees two faults, and a file's
			// first fault always lands on a pipelined chunk — sequential
			// reads only follow one. Which chunk it hits depends on how the
			// two workers interleave; the outcome does not: the pipeline
			// hands its prefix to the sequential loop, whose re-read is
			// clean. That is what keeps this row's stats replayable
			// (TestChaosStatsReplayBitIdentical) although its call indices
			// are not.
			name: "bulk-pipeline", servers: 2, files: 12, size: 2*bulkChunk + bulkChunk/4 + 7, epochs: 2,
			sched: faultnet.Schedule{Seed: 18, HangTimeout: 10 * time.Millisecond, Rules: []faultnet.Rule{
				{Op: transport.OpRead, Offset: 1, Every: 28, Fault: faultnet.Disconnect},
				{Op: transport.OpRead, Offset: 8, Every: 28, Fault: faultnet.Truncate},
				{Op: transport.OpRead, Offset: 15, Every: 28, Fault: faultnet.Corrupt},
				{Op: transport.OpRead, Offset: 22, Every: 28, Fault: faultnet.Hang},
			}},
		},
		{
			name: "fault-storm", servers: 3, files: 15, size: 2048, epochs: 3,
			sched: faultnet.Schedule{Seed: 10, HangTimeout: 10 * time.Millisecond, Rules: []faultnet.Rule{
				{Prob: 0.05, Fault: faultnet.Refuse},
				{Prob: 0.05, Fault: faultnet.Disconnect},
				{Prob: 0.05, Fault: faultnet.Truncate},
				{Prob: 0.05, Fault: faultnet.Corrupt},
				{Prob: 0.05, Fault: faultnet.Hang},
				{Prob: 0.05, Fault: faultnet.Delay, Delay: time.Millisecond},
			}},
		},
	}
}

// basenamePlacement hashes only the file's base name, so the file→server
// assignment is identical no matter which temp directory the PFS tree
// lands in. Chaos schedules scope rules by server name; without this, a
// run whose temp path happened to home no files on the faulted server
// would inject nothing.
type basenamePlacement struct{ inner place.ModHash }

func (basenamePlacement) Name() string { return "chaos-basename" }
func (p basenamePlacement) Place(path string, n int) int {
	return p.inner.Place(filepath.Base(path), n)
}
func (p basenamePlacement) Replicas(path string, n, r int) []int {
	return p.inner.Replicas(filepath.Base(path), n, r)
}

// pinPlacement swaps a freshly built client's view for one over
// basenamePlacement. Placement is not configurable (real mode hashes with
// ModHash), so the tests that need a temp-dir-independent assignment
// replace the view itself, before the client has placed anything;
// wirePeers does the same to the servers' peer views.
func pinPlacement(cli *Client) {
	cli.view = place.NewView(basenamePlacement{}, cli.view.Size())
}

// chaosCallTimeout and chaosRetryPolicy are the fast client transport
// settings every chaos cluster (and the failover benchmark) runs with,
// so fault-heavy runs stay quick and deterministic.
const chaosCallTimeout = 2 * time.Second

func chaosRetryPolicy(seed uint64) transport.RetryPolicy {
	return transport.RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   100 * time.Microsecond,
		MaxDelay:    time.Millisecond,
		Seed:        seed,
	}
}

// startChaosCluster is startCluster plus the faultnet decoration: every
// server link is wrapped by inj under the stable name "srv<i>", with fast
// retry/timeout settings so fault-heavy runs stay quick.
func startChaosCluster(t *testing.T, pfsDir string, tc chaosCase, inj *faultnet.Injector, cliMut func(*ClientConfig)) ([]*Server, *Client) {
	t.Helper()
	servers, cli := startCluster(t, pfsDir, tc.servers,
		func(c *ServerConfig) {
			c.CacheCapacity = tc.capacity
			if tc.policy != nil {
				c.Policy = tc.policy() // fresh instance per server: policies are stateful
			}
			// Agree with the client on the replica count so tests that
			// wire the peer set (wirePeers) warm the same homes the
			// client will fail over to. Without SetPeers it is inert.
			c.Replicas = tc.replicas
		},
		func(c *ClientConfig) {
			c.Replicas = tc.replicas
			addrs := append([]string(nil), c.Servers...)
			opts := transport.ClientOptions{
				CallTimeout: chaosCallTimeout,
				Retry:       chaosRetryPolicy(tc.sched.Seed),
			}
			c.DialTransport = func(addr string) transport.Transport {
				name := addr
				for i, a := range addrs {
					if a == addr {
						name = fmt.Sprintf("srv%d", i)
					}
				}
				return inj.Wrap(name, dialOver(tc.network, addr, opts))
			}
			if cliMut != nil {
				cliMut(c)
			}
		})
	pinPlacement(cli)
	return servers, cli
}

// maybeWriteCorpus dumps the committed schedule corpus as JSON, one file
// per case, when HVAC_CHAOS_CORPUS names a directory — CI uploads it as
// a build artifact so any matrix failure ships its exact fault plan.
func maybeWriteCorpus(t *testing.T, cases []chaosCase) {
	t.Helper()
	dir := os.Getenv("HVAC_CHAOS_CORPUS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		blob, err := json.MarshalIndent(struct {
			Name     string
			Servers  int
			Files    int
			Size     int
			Epochs   int
			Replicas int
			Schedule faultnet.Schedule
		}{tc.name, tc.servers, tc.files, tc.size, tc.epochs, tc.replicas, tc.sched}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, tc.name+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runChaosCase drives one matrix cell and asserts the resilience
// invariants. It returns the cell's serves per payload plane, so the
// matrices can assert the run exercised every zero-copy plane, and the
// fetches the caches refused.
func runChaosCase(t *testing.T, tc chaosCase) (sum chaosTotals) {
	checkResources(t)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	write := writePFS
	if tc.size > bulkChunk {
		write = writePatternPFS // multi-chunk reads: a misplaced chunk must change the bytes
	}
	paths := write(t, pfsDir, tc.files, tc.size)
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
	servers, cli := startChaosCluster(t, pfsDir, tc, inj, nil)

	opens, batchEntries := 0, 0
	for e := 0; e < tc.epochs; e++ {
		for _, p := range paths {
			got, err := cli.ReadAll(p)
			opens++
			if err != nil {
				t.Fatalf("epoch %d: read %s under faults: %v", e, p, err)
			}
			// Invariant 1: byte-identical to the PFS copy.
			if !bytes.Equal(got, want[p]) {
				t.Fatalf("epoch %d: %s corrupted under faults (%d bytes, want %d)", e, p, len(got), len(want[p]))
			}
		}
		// The same epoch again through the scatter-gather path: one
		// OpReadBatch per home server, with whatever degradation the
		// schedule forces, must still return every file intact.
		batch, err := cli.ReadBatch(paths)
		if err != nil {
			t.Fatalf("epoch %d: batch read under faults: %v", e, err)
		}
		for i, p := range paths {
			if !bytes.Equal(batch[i], want[p]) {
				t.Fatalf("epoch %d: batch entry %s corrupted under faults (%d bytes, want %d)", e, p, len(batch[i]), len(want[p]))
			}
		}
		batchEntries += len(paths)
	}
	if inj.Injected() == 0 {
		t.Fatalf("schedule %q injected no faults; the case is vacuous", tc.name)
	}

	// Invariant 2, client side: every batch entry is exactly one of
	// BatchReads or BatchFallbacks, and every open lands in exactly
	// one of Redirected or Fallbacks. The chaos faults fail whole
	// calls (the files are far below the frame budget and the PFS is
	// healthy, so StatusAgain and per-entry errors cannot occur):
	// each BatchFallback entry is served by exactly one ordinary
	// per-file read, which the open identity has to absorb.
	st := cli.Stats()
	if st.BatchReads+st.BatchFallbacks != int64(batchEntries) {
		t.Fatalf("batch accounting broken: batchreads(%d)+batchfallbacks(%d) != batch entries(%d); stats %+v",
			st.BatchReads, st.BatchFallbacks, batchEntries, st)
	}
	if st.Redirected+st.Fallbacks != int64(opens)+st.BatchFallbacks {
		t.Fatalf("open accounting broken: redirected(%d)+fallbacks(%d) != opens(%d)+batchfallbacks(%d); stats %+v",
			st.Redirected, st.Fallbacks, opens, st.BatchFallbacks, st)
	}
	if st.Failovers > st.Redirected {
		t.Fatalf("failovers(%d) exceed redirected opens(%d)", st.Failovers, st.Redirected)
	}
	if st.Degrades > st.Redirected {
		t.Fatalf("degrades(%d) exceed redirected opens(%d): a handle degraded twice", st.Degrades, st.Redirected)
	}
	if st.Passthrough != 0 {
		t.Fatalf("chaos reads leaked outside the dataset dir: %+v", st)
	}

	// Invariant 2, server side: everything served — opens and batch
	// entries — is exactly one of Hit or ReadThrough; and every
	// zero-copy-eligible serve (a response that left carrying an fd
	// payload) resolved as exactly one of a sendfile send or a userspace
	// fallback.
	for i, s := range servers {
		ss := s.Stats()
		served := ss.Opens + ss.BatchEntries
		if ss.Hits+ss.ReadThroughs != served {
			t.Fatalf("srv%d: hits(%d)+readthroughs(%d) != served(%d); stats %+v",
				i, ss.Hits, ss.ReadThroughs, served, ss)
		}
		if ss.ZeroCopySends+ss.ZeroCopyFallbacks != ss.ZeroCopyEligible {
			t.Fatalf("srv%d: zerocopy sends(%d)+fallbacks(%d) != eligible(%d); stats %+v",
				i, ss.ZeroCopySends, ss.ZeroCopyFallbacks, ss.ZeroCopyEligible, ss)
		}
		if tc.network != "local" && ss.Passed != 0 {
			t.Fatalf("srv%d: %d descriptors passed off the local socket", i, ss.Passed)
		}
		if tc.capacity > 0 && ss.CachedBytes > tc.capacity {
			t.Fatalf("srv%d: cached %d bytes over the %d-byte capacity", i, ss.CachedBytes, tc.capacity)
		}
		sum.eligible += ss.ZeroCopyEligible
		sum.mapped += ss.MappedSends
		sum.passed += ss.Passed
		sum.notAdmitted += ss.NotAdmitted
	}
	if tc.network != "" {
		checkNetwork(t, tc.network, servers...)
	}
	return sum
}

// chaosTotals sums a run's serves by payload plane — fd payloads that
// reached the sendfile writer (eligible), payloads passed as descriptors
// (whole reads and batch entries), and payloads spliced from mappings —
// and its fetches not admitted.
type chaosTotals struct{ eligible, passed, mapped, notAdmitted int64 }

// add sums the payload planes of p into t.
func (t *chaosTotals) add(p chaosTotals) {
	t.eligible, t.passed, t.mapped = t.eligible+p.eligible, t.passed+p.passed, t.mapped+p.mapped
}

// TestChaosMatrix runs every row over TCP, twice: as written, and in
// the keep column, where each server's cache holds half its share of the
// dataset under keep eviction, so that every epoch serves hits beside
// misses the cache refuses — read from the PFS by the server, once. Warm
// serves travel cache-fd → socket through sendfile or leave from their
// mappings, and the injected faults (disconnects, hangs, kills
// mid-payload) hit those planes directly: byte identity proves the kernel
// path and its mid-transfer fallbacks frame exactly the bytes a pread
// would, and the rows as written must produce serves by sendfile and
// from mappings somewhere (epoch-2 warm reads of files at or above
// zeroCopyMin and below it), else the planes went unexercised.
func TestChaosMatrix(t *testing.T) {
	maybeWriteCorpus(t, chaosMatrix())
	var sum chaosTotals
	for _, tc := range chaosMatrix() {
		tc.network = "tcp"
		t.Run(tc.name, func(t *testing.T) {
			sum.add(runChaosCase(t, tc))
		})
		keep := tc
		keep.name += "-keep"
		keep.policy = cachestore.NewKeep
		keep.capacity = int64(tc.files * tc.size / (2 * tc.servers))
		t.Run(keep.name, func(t *testing.T) {
			if sum := runChaosCase(t, keep); sum.notAdmitted == 0 {
				t.Fatal("no fetch was refused at half capacity; the keep column is vacuous")
			}
		})
		// Invariant 3 (no goroutine leaks) asserted by CheckLeaks at
		// subtest teardown, after servers and client close.
	}
	if sum.eligible == 0 || sum.mapped == 0 {
		t.Fatalf("%d serves by sendfile and %d from mappings across the matrix; the planes went unexercised", sum.eligible, sum.mapped)
	}
}

// TestChaosMatrixZeroCopyLocal is the matrix with every client on the
// servers' local socket, so the faults hit the mapped writev and the
// descriptor frames of a unix socket. Every row whose files reach the
// transport's floor (passMin, 8 KiB) — bulk-pipeline, whose 1.25 MiB files
// are read in chunks, and batch-passed — must pass its warm payloads as
// descriptors, with the bytes runChaosCase holds identical to the PFS
// copy; the rows below it leave from their mappings. No serve on the local
// socket reaches sendfile, which is TestChaosMatrix's plane.
func TestChaosMatrixZeroCopyLocal(t *testing.T) {
	skipNoLocal(t)
	var sum chaosTotals
	for _, tc := range chaosMatrix() {
		tc.network = "local"
		t.Run(tc.name, func(t *testing.T) {
			p := runChaosCase(t, tc)
			sum.add(p)
			if tc.size >= passMin && p.passed == 0 {
				t.Fatalf("no payload of %d bytes was passed as a descriptor; the row is vacuous", tc.size)
			}
		})
	}
	if sum.eligible != 0 || sum.mapped == 0 || sum.passed == 0 {
		t.Fatalf("%d serves by sendfile, %d from mappings and %d by descriptor across the matrix; want none by sendfile and some of each other",
			sum.eligible, sum.mapped, sum.passed)
	}
}

// traceByCall orders a decision trace by (server, op, index), the key
// each decision is a pure function of. ReadBatch fetches its servers
// concurrently, so the order in which different servers' calls reach the
// injector is not something a seed replays; what every (server, op) link
// saw, call by call, is.
func traceByCall(inj *faultnet.Injector) []faultnet.Event {
	tr := inj.Trace()
	sort.SliceStable(tr, func(i, j int) bool {
		a, b := tr[i], tr[j]
		if a.Server != b.Server {
			return a.Server < b.Server
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Index < b.Index
	})
	return tr
}

// The same seed must replay the same fault schedule bit-for-bit even
// across distinct clusters (ephemeral ports differ; the trace is keyed by
// stable server names).
func TestChaosScheduleReplaysAcrossClusters(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "replay", servers: 2, files: 10, size: 512, epochs: 2,
		sched: faultnet.Schedule{Seed: 77, Rules: []faultnet.Rule{
			{Prob: 0.2, Fault: faultnet.Refuse},
			{Op: transport.OpRead, Prob: 0.2, Fault: faultnet.Truncate},
		}},
	}
	// Both runs share one PFS tree so the call sequence — and therefore
	// the per-(server, op) indices the schedule keys on — is identical.
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	run := func() []faultnet.Event {
		inj := faultnet.New(tc.sched)
		defer inj.Close()
		servers, cli := startChaosCluster(t, pfsDir, tc, inj, nil)
		for e := 0; e < tc.epochs; e++ {
			for _, p := range paths {
				if _, err := cli.ReadAll(p); err != nil {
					t.Fatalf("read %s: %v", p, err)
				}
			}
			if _, err := cli.ReadBatch(paths); err != nil {
				t.Fatalf("batch read: %v", err)
			}
		}
		stopCluster(servers, cli)
		return traceByCall(inj)
	}
	t1, t2 := run(), run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed, different fault traces across clusters:\nrun1: %d events\nrun2: %d events", len(t1), len(t2))
	}
}

// Invariant 4: with fallback disabled, a fault surfaces as a hard error
// whose chain names the failing server.
func TestChaosDisableFallbackNamesFailingServer(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "hard-fail", servers: 1, files: 2, size: 128, epochs: 1,
		sched: faultnet.Schedule{Seed: 11, Rules: []faultnet.Rule{
			{Server: "srv0", Fault: faultnet.Refuse},
		}},
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, func(c *ClientConfig) { c.disableFallback = true })

	_, err := cli.Open(paths[0])
	if err == nil {
		t.Fatal("open succeeded with every call refused and fallback disabled")
	}
	if !strings.Contains(err.Error(), "srv0") {
		t.Fatalf("error chain does not name the failing server: %v", err)
	}
	st := cli.Stats()
	if st.Fallbacks != 0 || st.Redirected != 0 {
		t.Fatalf("hard failure was still accounted as served: %+v", st)
	}
}

// Mid-file server loss under a schedule (rather than a hand-rolled
// Close): the handle degrades to the PFS and the bytes stay identical.
func TestChaosMidReadDegradation(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "mid-read", servers: 1, files: 1, size: 64 << 10, epochs: 1,
		sched: faultnet.Schedule{Seed: 12, Rules: []faultnet.Rule{
			// First OpRead works, every later one is refused: the server
			// "dies" with the handle open.
			{Op: transport.OpRead, Offset: 1, Fault: faultnet.Refuse},
		}},
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	want, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, nil)

	f, err := cli.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	head := make([]byte, 4<<10)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatalf("first read: %v", err)
	}
	rest := make([]byte, len(want)-len(head))
	if _, err := f.ReadAt(rest, int64(len(head))); err != nil {
		t.Fatalf("read after injected server loss: %v", err)
	}
	if !bytes.Equal(append(head, rest...), want) {
		t.Fatal("content corrupted across the mid-read degradation")
	}
	if st := cli.Stats(); st.Degrades != 1 {
		t.Fatalf("degrades = %d, want exactly 1 (the degraded handle)", st.Degrades)
	}
}

// The same mid-read degradation with the server still alive: closing the
// degraded file closes the server-side handle it was opened on too, so a
// degrade leaves no handle behind (DESIGN.md §3.3).
func TestChaosDegradedCloseRetiresHandle(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "degraded-close", servers: 1, files: 1, size: 64 << 10, epochs: 1,
		sched: faultnet.Schedule{Seed: 12, Rules: []faultnet.Rule{
			{Op: transport.OpRead, Offset: 1, Fault: faultnet.Refuse},
		}},
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	servers, cli := startChaosCluster(t, pfsDir, tc, inj, nil)

	f, err := cli.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4<<10)
	for off := int64(0); off < 2*int64(len(buf)); off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
	}
	if st := cli.Stats(); st.Degrades != 1 {
		t.Fatalf("degrades = %d, want 1", st.Degrades)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if st := servers[0].Stats(); st.Closes != st.Opens {
		t.Fatalf("opens=%d closes=%d: the degraded file's server handle leaked", st.Opens, st.Closes)
	}
}

// The same server loss in the middle of a bulk read: the first chunk RPC
// to reach the server works, every later OpRead is refused. Whichever
// chunks the two pipeline workers had claimed, the pipeline keeps only its
// contiguous prefix, the sequential loop finds the server gone and
// degrades the handle — once — and the PFS delivers the rest.
func TestChaosBulkMidPipelineDegradation(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "mid-pipeline", servers: 1, files: 1, size: 4*bulkChunk + bulkChunk/2, epochs: 1,
		sched: faultnet.Schedule{Seed: 19, Rules: []faultnet.Rule{
			{Op: transport.OpRead, Offset: 1, Fault: faultnet.Refuse},
		}},
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePatternPFS(t, pfsDir, tc.files, tc.size)
	want, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, nil)

	got, err := cli.ReadAll(paths[0])
	if err != nil {
		t.Fatalf("bulk read across injected server loss: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content corrupted across the mid-pipeline degradation")
	}
	st := cli.Stats()
	if st.Redirected != 1 || st.Fallbacks != 0 || st.Degrades != 1 {
		t.Fatalf("stats = %+v, want one redirected open degraded exactly once", st)
	}
	// The one chunk that was served counts only if it was the first of
	// the file: anything behind a failed chunk is re-read, not delivered.
	if st.BytesRead != 0 && st.BytesRead != bulkChunk {
		t.Fatalf("BytesRead = %d, want 0 or one chunk (%d)", st.BytesRead, bulkChunk)
	}
}

// TestChaosRecycledBuffersStayIntact reads under faults the way the loader
// does: each sample is compared with its PFS copy and handed straight back
// to the slab, so the next ReadAll refills the same memory. The recycling
// rests on one rule: nothing writes into a caller's buffer after ReadAt
// returns (DESIGN.md §3.4). A pipelined chunk left running, or a failed
// replica rung still receiving, breaks it by writing into a later sample:
// a mismatch here, or a race with the comparison under -race. The bulk
// row faults the pipeline. In the ladder row srv1's reads fail after
// their bytes landed, so the next rung lands the same range again on
// srv0 and the handle migrates there mid-file.
func TestChaosRecycledBuffersStayIntact(t *testing.T) {
	var bulk chaosCase
	for _, tc := range chaosMatrix() {
		if tc.name == "bulk-pipeline" {
			bulk = tc
		}
	}
	bulk.epochs = 3
	ladder := chaosCase{
		name: "ladder-over-disconnect", servers: 2, files: bulk.files, size: bulk.size, epochs: 3, replicas: 2,
		sched: faultnet.Schedule{Seed: 24, Rules: []faultnet.Rule{
			{Server: "srv1", Op: transport.OpRead, Every: 3, Fault: faultnet.Disconnect},
			{Server: "srv1", Op: transport.OpRead, Offset: 1, Every: 3, Fault: faultnet.Truncate},
		}},
	}
	for _, tc := range []chaosCase{bulk, ladder} {
		t.Run(tc.name, func(t *testing.T) {
			checkResources(t)
			pfsDir := filepath.Join(t.TempDir(), "dataset")
			paths := writePatternPFS(t, pfsDir, tc.files, tc.size)
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
			for e := 0; e < tc.epochs; e++ {
				for _, p := range paths {
					got, err := cli.ReadAll(p)
					if err != nil {
						t.Fatalf("epoch %d: read %s under faults: %v", e, p, err)
					}
					if !bytes.Equal(got, want[p]) {
						t.Fatalf("epoch %d: %s differs from the PFS copy in a recycled buffer", e, p)
					}
					slab.Put(got)
				}
			}
			if inj.Injected() == 0 {
				t.Fatalf("schedule %q injected no faults; the case is vacuous", tc.name)
			}
			if st := cli.Stats(); tc.replicas > 1 && st.Failovers == 0 {
				t.Fatalf("no read walked past its first rung; the case is vacuous: %+v", st)
			}
		})
	}
}

// Per-entry batch degradation under faults: an entry the home server
// cannot serve (here: outside its PFSDir export) comes back StatusError
// and falls back to the PFS alone, while the rest of the batch — and a
// live fault schedule delaying the calls — proceeds through the cache.
// The chaos matrix cannot reach this path (its faults fail whole calls),
// so it gets its own scheduled case.
func TestChaosBatchPerEntryFallback(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "batch-entry", servers: 2, files: 8, size: 1024, epochs: 2,
		sched: faultnet.Schedule{Seed: 15, Rules: []faultnet.Rule{
			{Op: transport.OpReadBatch, Every: 2, Fault: faultnet.Delay, Delay: time.Millisecond},
		}},
	}
	root := t.TempDir()
	pfsDir := filepath.Join(root, "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	// One batch member lives inside the client's dataset dir but outside
	// the servers' PFSDir export: its home server must fail exactly that
	// entry, never the batch.
	stray := filepath.Join(root, "stray.bin")
	strayContent := bytes.Repeat([]byte{0x5a}, tc.size)
	if err := os.WriteFile(stray, strayContent, 0o644); err != nil {
		t.Fatal(err)
	}
	all := append(append([]string(nil), paths...), stray)

	inj := faultnet.New(tc.sched)
	defer inj.Close()
	_, cli := startChaosCluster(t, pfsDir, tc, inj, func(c *ClientConfig) { c.DatasetDir = root })

	for e := 0; e < tc.epochs; e++ {
		got, err := cli.ReadBatch(all)
		if err != nil {
			t.Fatalf("epoch %d: batch read: %v", e, err)
		}
		for i, p := range paths {
			content, rerr := os.ReadFile(p)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(got[i], content) {
				t.Fatalf("epoch %d: batch entry %s corrupted", e, p)
			}
		}
		if !bytes.Equal(got[len(paths)], strayContent) {
			t.Fatalf("epoch %d: stray entry not served via PFS fallback", e)
		}
	}
	if inj.Injected() == 0 {
		t.Fatal("schedule injected no faults; the case is vacuous")
	}
	st := cli.Stats()
	if st.BatchFallbacks != int64(tc.epochs) {
		t.Fatalf("batch fallbacks = %d, want %d (one stray entry per epoch)", st.BatchFallbacks, tc.epochs)
	}
	if st.BatchReads != int64(tc.epochs*tc.files) {
		t.Fatalf("batch reads = %d, want %d (every in-export entry batch-served)", st.BatchReads, tc.epochs*tc.files)
	}
}

// Retry accounting: injected refusals burn transport retries, and the
// budget surfaces through ClientStats.
func TestChaosRetryBudgetSurfaced(t *testing.T) {
	checkResources(t)
	tc := chaosCase{
		name: "retries", servers: 1, files: 4, size: 256, epochs: 1,
		sched: faultnet.Schedule{Seed: 13},
	}
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, tc.files, tc.size)
	inj := faultnet.New(tc.sched)
	defer inj.Close()
	srvs, cli := startChaosCluster(t, pfsDir, tc, inj, nil)
	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	if st := cli.Stats(); st.Retries != 0 {
		t.Fatalf("fault-free run burned %d retries", st.Retries)
	}
	// Kill the server for real: every call now exhausts the 2-attempt
	// budget, spending one retry per call (Close is idempotent, so the
	// cluster cleanup tolerates the early kill).
	for _, s := range srvs {
		s.Close()
	}
	if _, err := cli.ReadAll(paths[0]); err != nil {
		t.Fatalf("read with dead server must fall back, got %v", err)
	}
	if st := cli.Stats(); st.Retries == 0 {
		t.Fatal("dead-server calls burned no transport retries")
	}
}
