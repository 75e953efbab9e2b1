package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hvac/internal/place"
)

// Replica warming (§III-H): a demand fill on a key's primary forwards
// prefetch hints to the key's other homes, so by the time a failover —
// or a membership change — moves reads to a secondary, the secondary's
// cache is already hot and the epoch never goes back to the PFS.

// wirePeers connects every server of a started cluster into one
// replica-warming peer group, placed by basenamePlacement like the
// pinPlacement clients they serve. The servers must share the client's
// replica count (set via the ServerConfig) so both sides agree on each
// key's homes.
func wirePeers(t *testing.T, servers []*Server) {
	t.Helper()
	addrs := make([]string, len(servers))
	for i, s := range servers {
		addrs[i] = s.Addr()
	}
	for i, s := range servers {
		s.SetPeers(addrs, i)
		s.peerMu.Lock()
		s.pview = place.NewView(basenamePlacement{}, len(addrs))
		s.peerMu.Unlock()
	}
}

// drainFills retires every background fill and the warm fills those
// fills triggered: a demand fill registers its warm hints on the peers
// before it retires (finishFetch comes after warmReplicas), so pass 1
// drains the demand fills and pass 2 the warm fills — which never
// cascade, so two passes always suffice.
func drainFills(servers []*Server) {
	for pass := 0; pass < 2; pass++ {
		for _, s := range servers {
			s.WaitIdle()
		}
	}
}

// servedTotals sums the cache-vs-PFS service counters across a cluster.
func servedTotals(servers []*Server) (hits, readThroughs int64) {
	for _, s := range servers {
		ss := s.Stats()
		hits += ss.Hits
		readThroughs += ss.ReadThroughs
	}
	return hits, readThroughs
}

// warmCluster is startCluster plus replica-count and placement agreement
// on both sides and the peer wiring.
func warmCluster(t *testing.T, pfsDir string, n, replicas int) ([]*Server, *Client) {
	t.Helper()
	servers, cli := startCluster(t, pfsDir, n,
		func(c *ServerConfig) { c.Replicas = replicas },
		func(c *ClientConfig) { c.Replicas = replicas })
	pinPlacement(cli)
	wirePeers(t, servers)
	return servers, cli
}

// A whole-file demand epoch warms every file's secondary; after the
// primary leaves the client's view, the follow-up epoch is served
// entirely from the warmed caches — zero new read-throughs, zero PFS
// fallbacks, bytes identical.
func TestReplicaWarmingServesFailoverEpochFromCache(t *testing.T) {
	checkResources(t)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 12, 2048)
	servers, cli := warmCluster(t, pfsDir, 3, 2)

	for _, p := range paths { // epoch 1: demand fills on the primaries
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	drainFills(servers)

	var warms int64
	for _, s := range servers {
		warms += s.Stats().ReplicaWarms
	}
	if warms != int64(len(paths)) {
		t.Fatalf("replica warms = %d, want %d (every demand fill warms exactly its one secondary)", warms, len(paths))
	}

	// Membership change: srv0 leaves the client's view. Its files move to
	// their secondary home — which warming already filled.
	if !cli.View().Leave(0) {
		t.Fatal("view refused the leave")
	}
	_, rtBefore := servedTotals(servers)
	for _, p := range paths {
		got, err := cli.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		want, rerr := os.ReadFile(p)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted across the membership change", p)
		}
	}
	_, rtAfter := servedTotals(servers)
	if rtAfter != rtBefore {
		t.Fatalf("%d new read-throughs in the post-leave epoch; replica warming left cold caches", rtAfter-rtBefore)
	}
	if st := cli.Stats(); st.Fallbacks != 0 {
		t.Fatalf("post-leave epoch fell back to the PFS: %+v", st)
	}
}

// ReplicaWarms counts the hints a peer accepted, not the calls that
// reached it: a peer answers a hint for a path outside its dataset dir
// with a per-entry error inside an OK response. Here the secondary serves
// another directory, so every hint the primary's demand fills send it is
// refused, and the primary counts none.
func TestReplicaWarmingCountsOnlyAcceptedHints(t *testing.T) {
	checkResources(t)
	root := t.TempDir()
	pfsDir := filepath.Join(root, "dataset")
	paths := writePFS(t, pfsDir, 6, 512)
	n := 0
	servers, cli := startCluster(t, pfsDir, 2,
		func(c *ServerConfig) {
			c.Replicas = 2
			if n++; n == 2 {
				c.PFSDir = filepath.Join(root, "elsewhere")
			}
		},
		// The client reads through the primary alone, so every file is
		// homed there and each demand fill warms the secondary.
		func(c *ClientConfig) { c.Servers = c.Servers[:1] })
	wirePeers(t, servers)

	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	drainFills(servers)

	primary := servers[0].Stats()
	if primary.Misses != int64(len(paths)) {
		t.Fatalf("primary completed %d demand fills, want %d", primary.Misses, len(paths))
	}
	if hints := servers[1].ReadLatency().Count(); hints != int64(len(paths)) {
		t.Fatalf("the secondary answered %d hint calls, want %d (one per demand fill); the case is vacuous", hints, len(paths))
	}
	if primary.ReplicaWarms != 0 {
		t.Fatalf("replica warms = %d, want 0: the secondary refused every hint", primary.ReplicaWarms)
	}
	if cached := servers[1].CachedFiles(); cached != 0 {
		t.Fatalf("the secondary cached %d files from outside its dataset dir", cached)
	}
}

// Client-driven prefetch populates all R homes, not just the primary:
// after the hints drain, a membership change leaves no cold reads.
func TestPrefetchWarmsAllReplicaHomes(t *testing.T) {
	checkResources(t)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 10, 1024)
	servers, cli := warmCluster(t, pfsDir, 3, 2)

	// Every path is hinted at both of its homes: 2R hints accepted.
	if n := cli.Prefetch(paths); n != 2*len(paths) {
		t.Fatalf("prefetch accepted %d hints, want %d (one per replica home)", n, 2*len(paths))
	}
	drainFills(servers)

	if !cli.View().Leave(0) {
		t.Fatal("view refused the leave")
	}
	_, rtBefore := servedTotals(servers)
	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, rtAfter := servedTotals(servers); rtAfter != rtBefore {
		t.Fatalf("%d read-throughs after prefetch + leave; prefetch warmed only the primary", rtAfter-rtBefore)
	}
}

// Without peer wiring (the default), demand fills never leave the
// server: warming is strictly opt-in.
func TestNoWarmingWithoutPeers(t *testing.T) {
	checkResources(t)
	pfsDir := filepath.Join(t.TempDir(), "dataset")
	paths := writePFS(t, pfsDir, 6, 512)
	servers, cli := startCluster(t, pfsDir, 2,
		nil,
		func(c *ClientConfig) { c.Replicas = 2 })
	for _, p := range paths {
		if _, err := cli.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	drainFills(servers)
	for i, s := range servers {
		if w := s.Stats().ReplicaWarms; w != 0 {
			t.Fatalf("srv%d sent %d warm hints with no peer set configured", i, w)
		}
	}
}
