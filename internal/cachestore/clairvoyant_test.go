package cachestore

import (
	"fmt"
	"sort"
	"testing"
)

// evictOne asks for a victim and removes it, as Index.Insert would.
func evictOne(t *testing.T, c *Clairvoyant) string {
	t.Helper()
	v := c.Victim()
	if v == "" {
		t.Fatal("Victim returned no candidate")
	}
	c.OnRemove(v)
	return v
}

// The victim preference order: consumed plan keys (oldest first), then
// unplanned probation, then unplanned protected, and only then the
// planned key with the farthest next access.
func TestClairvoyantVictimOrder(t *testing.T) {
	c := NewClairvoyant()
	c.SetPlan([]string{"a", "b", "c", "d"})
	for _, k := range []string{"a", "b", "c", "d"} {
		c.OnInsert(k)
	}
	c.Advance(2) // a and b consumed

	if v := evictOne(t, c); v != "a" {
		t.Fatalf("first victim %q, want the oldest consumed key a", v)
	}
	if v := evictOne(t, c); v != "b" {
		t.Fatalf("second victim %q, want b", v)
	}

	// Unplanned keys are preferred over unconsumed plan keys.
	c.OnInsert("u1")
	c.OnInsert("u2")
	c.OnAccess("u2") // promotes u2 to protected
	if v := evictOne(t, c); v != "u1" {
		t.Fatalf("victim %q, want the probation key u1", v)
	}
	if v := evictOne(t, c); v != "u2" {
		t.Fatalf("victim %q, want the protected key u2 before any planned key", v)
	}

	// Among unconsumed plan keys: farthest next access first.
	if v := evictOne(t, c); v != "d" {
		t.Fatalf("victim %q, want d (position 3 is farther than c's 2)", v)
	}
	if v := evictOne(t, c); v != "c" {
		t.Fatalf("victim %q, want c", v)
	}
	if v := c.Victim(); v != "" {
		t.Fatalf("empty policy returned victim %q", v)
	}
}

// A ghost hit skips probation: a key evicted and quickly re-admitted
// enters the protected segment directly.
func TestClairvoyantGhostReadmission(t *testing.T) {
	c := NewClairvoyant()
	c.OnInsert("x")
	c.OnInsert("y")
	if v := evictOne(t, c); v != "x" {
		t.Fatalf("victim %q, want x", v)
	}
	c.OnInsert("x") // ghost hit
	// Probation now holds only y; x sits protected, so y goes first.
	if v := evictOne(t, c); v != "y" {
		t.Fatalf("victim %q, want y (x was re-admitted to protected)", v)
	}
	if v := evictOne(t, c); v != "x" {
		t.Fatalf("victim %q, want x", v)
	}
}

// An explicit removal (not an eviction) must not create a ghost.
func TestClairvoyantExplicitRemoveNoGhost(t *testing.T) {
	c := NewClairvoyant()
	c.OnInsert("x")
	c.OnRemove("x") // no Victim call: a purge, not an eviction
	c.OnInsert("x")
	c.OnInsert("y")
	// Were x ghosted it would sit protected and y would go first; without
	// the ghost both are on probation and x (older) goes first.
	if v := evictOne(t, c); v != "x" {
		t.Fatalf("victim %q, want x (explicit removes must not ghost)", v)
	}
}

// Re-installing a plan re-scores resident keys; keys the new plan drops
// fall to the unplanned segments and evict before planned ones.
func TestClairvoyantReplanReclassifies(t *testing.T) {
	c := NewClairvoyant()
	c.SetPlan([]string{"a", "b", "c"})
	for _, k := range []string{"a", "b", "c"} {
		c.OnInsert(k)
	}
	c.Advance(3) // whole epoch consumed
	c.SetPlan([]string{"c", "a"})
	// b is unplanned now; a and c are future again.
	if v := evictOne(t, c); v != "b" {
		t.Fatalf("victim %q, want the dropped key b", v)
	}
	if v := evictOne(t, c); v != "a" {
		t.Fatalf("victim %q, want a (position 1 is farther than c's 0)", v)
	}
	if v := evictOne(t, c); v != "c" {
		t.Fatalf("victim %q, want c", v)
	}
}

// xorshift is a tiny deterministic PRNG for the ablation traces (the
// test cannot import internal/train: train's tests import core, which
// imports this package).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// access is one trace step: a key and, when planned, its position in
// the epoch's sample plan (-1 for unplanned traffic).
type access struct {
	key string
	pos int
}

// epochTrace returns epochs passes of the DL access pattern the planner
// exists for — a fresh shuffled scan over n sample keys per epoch —
// interleaved with unplanned traffic over a small hot key set (think
// validation samples or shared metadata the oracle cannot see). The hot
// set is what separates the policies: reuse of hot keys rewards
// recency (LRU over random), and plan-aware eviction protects both the
// hot set and the soonest-needed samples (clairvoyant over LRU).
func epochTrace(seed uint64, n, hot, epochs int) [][]access {
	out := make([][]access, epochs)
	rng := xorshift(seed | 1)
	for e := range out {
		perm := make([]string, n)
		for i := range perm {
			perm[i] = fmt.Sprintf("k%04d", i)
		}
		erng := xorshift(seed + uint64(e)*0x9e3779b9 + 1)
		for i := n - 1; i > 0; i-- {
			j := int(erng.next() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		var tr []access
		for step, key := range perm {
			tr = append(tr, access{key: key, pos: step})
			// Every sample read is followed by one hot-set access.
			h := int(rng.next() % uint64(hot))
			tr = append(tr, access{key: fmt.Sprintf("h%03d", h), pos: -1})
		}
		out[e] = tr
	}
	return out
}

// planOf extracts the epoch's sample plan (planned keys in access
// order) from a trace epoch.
func planOf(epoch []access) []string {
	var plan []string
	for _, a := range epoch {
		if a.pos >= 0 {
			plan = append(plan, a.key)
		}
	}
	return plan
}

// runTrace drives an Index over the trace and reports the hit rate.
// When the policy is Clairvoyant the epoch plan is installed and the
// frontier advanced per planned read — exactly what the server does;
// hot keys stay unplanned and exercise the segmented-LRU fallback.
func runTrace(trace [][]access, capacity int64, p Policy) float64 {
	ix := NewIndex(capacity, p)
	cl, _ := p.(*Clairvoyant)
	for _, epoch := range trace {
		if cl != nil {
			cl.SetPlan(planOf(epoch))
		}
		for _, a := range epoch {
			if !ix.Contains(a.key) {
				ix.Insert(a.key, 1)
			}
			if cl != nil && a.pos >= 0 {
				cl.Advance(a.pos + 1)
			}
		}
	}
	hits, misses, _ := ix.Stats()
	return float64(hits) / float64(hits+misses)
}

// The ablation the eviction swap is justified by: at constrained
// capacity, plan-scored Belady eviction beats LRU, which beats random.
// Seeds and trace are fixed, so the hit rates — and therefore the
// ordering — are fully deterministic.
func TestClairvoyantAblationHitRateOrdering(t *testing.T) {
	const (
		n        = 400
		hot      = 40
		capacity = 100 // 25% of the sample working set
		epochs   = 6
	)
	trace := epochTrace(7, n, hot, epochs)
	cl := runTrace(trace, capacity, NewClairvoyant())
	lru := runTrace(trace, capacity, NewLRU())
	rnd := runTrace(trace, capacity, NewRandom(1))
	t.Logf("hit rates at capacity %d (%d samples + %d hot) over %d epochs: clairvoyant=%.3f lru=%.3f random=%.3f",
		capacity, n, hot, epochs, cl, lru, rnd)
	if cl < lru {
		t.Fatalf("clairvoyant hit rate %.3f below lru %.3f", cl, lru)
	}
	if lru < rnd {
		t.Fatalf("lru hit rate %.3f below random %.3f", lru, rnd)
	}
	if cl <= rnd {
		t.Fatalf("clairvoyant hit rate %.3f not above random %.3f", cl, rnd)
	}
}

// Same-seed runs must replay identically (the determinism the sim
// mirror depends on): identical hit rates and identical final resident
// sets. Keys() is map-ordered, so the sets are compared sorted.
func TestClairvoyantDeterministicReplay(t *testing.T) {
	run := func() (float64, []string) {
		trace := epochTrace(11, 200, 8, 4)
		p := NewClairvoyant()
		ix := NewIndex(50, p)
		for _, epoch := range trace {
			p.SetPlan(planOf(epoch))
			for _, a := range epoch {
				if !ix.Contains(a.key) {
					ix.Insert(a.key, 1)
				}
				if a.pos >= 0 {
					p.Advance(a.pos + 1)
				}
			}
		}
		hits, misses, _ := ix.Stats()
		keys := ix.Keys()
		sort.Strings(keys)
		return float64(hits) / float64(hits+misses), keys
	}
	h1, k1 := run()
	h2, k2 := run()
	if h1 != h2 {
		t.Fatalf("hit rate diverged across identical runs: %v vs %v", h1, h2)
	}
	if len(k1) != len(k2) {
		t.Fatalf("resident set size diverged: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("resident set diverged at %d: %q vs %q", i, k1[i], k2[i])
		}
	}
}
