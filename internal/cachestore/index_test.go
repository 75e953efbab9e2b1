package cachestore

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hvac/internal/sim"
)

func TestInsertLookup(t *testing.T) {
	ix := NewIndex(1000, NewRandom(1))
	if _, err := ix.Insert("a", 400); err != nil {
		t.Fatal(err)
	}
	if !ix.Contains("a") {
		t.Fatal("a not found")
	}
	if ix.Contains("b") {
		t.Fatal("phantom b")
	}
	hits, misses, _ := ix.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d", hits, misses)
	}
	if sz, ok := ix.Size("a"); !ok || sz != 400 {
		t.Fatalf("size = %d,%v", sz, ok)
	}
	if ix.Used() != 400 || ix.Len() != 1 {
		t.Fatalf("used/len = %d/%d", ix.Used(), ix.Len())
	}
}

func TestInsertDuplicateNoop(t *testing.T) {
	ix := NewIndex(1000, NewRandom(1))
	ix.Insert("a", 400)
	ev, err := ix.Insert("a", 400)
	if err != nil || ev != nil {
		t.Fatalf("dup insert = %v,%v", ev, err)
	}
	if ix.Used() != 400 {
		t.Fatalf("used = %d after dup", ix.Used())
	}
}

func TestEvictionMakesRoom(t *testing.T) {
	ix := NewIndex(1000, NewFIFO())
	ix.Insert("a", 400)
	ix.Insert("b", 400)
	ev, err := ix.Insert("c", 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0] != "a" {
		t.Fatalf("evicted %v, want [a] (FIFO)", ev)
	}
	if ix.Used() != 800 {
		t.Fatalf("used = %d", ix.Used())
	}
	_, _, evictions := ix.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
}

func TestTooLarge(t *testing.T) {
	ix := NewIndex(100, NewRandom(1))
	if _, err := ix.Insert("big", 200); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	ix := NewIndex(300, NewLRU())
	ix.Insert("a", 100)
	ix.Insert("b", 100)
	ix.Insert("c", 100)
	ix.Contains("a") // refresh a
	ev, _ := ix.Insert("d", 100)
	if len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("evicted %v, want [b]", ev)
	}
}

func TestRandomDeterministicUnderSeed(t *testing.T) {
	run := func() []string {
		ix := NewIndex(10, NewRandom(42))
		var evictions []string
		for i := 0; i < 50; i++ {
			ev, err := ix.Insert(fmt.Sprintf("k%d", i), 1)
			if err != nil {
				t.Fatal(err)
			}
			evictions = append(evictions, ev...)
		}
		return evictions
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("eviction streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy not deterministic under fixed seed")
		}
	}
}

// Property: under any insert sequence and any policy, used never exceeds
// capacity and equals the sum of resident entries.
func TestCapacityInvariant(t *testing.T) {
	policies := map[string]func() Policy{
		"random": func() Policy { return NewRandom(7) },
		"lru":    NewLRU,
		"fifo":   NewFIFO,
	}
	for name, mk := range policies {
		f := func(sizes []uint16) bool {
			ix := NewIndex(4096, mk())
			for i, sz := range sizes {
				size := int64(sz%2048) + 1
				_, err := ix.Insert(fmt.Sprintf("k%d", i), size)
				if err != nil {
					return false
				}
				if ix.Used() > ix.Capacity() {
					return false
				}
				var sum int64
				for _, k := range ix.Keys() {
					s, _ := ix.Size(k)
					sum += s
				}
				if sum != ix.Used() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRemove(t *testing.T) {
	ix := NewIndex(100, NewLRU())
	ix.Insert("a", 50)
	if !ix.Remove("a") {
		t.Fatal("remove failed")
	}
	if ix.Remove("a") {
		t.Fatal("double remove succeeded")
	}
	if ix.Used() != 0 {
		t.Fatalf("used = %d", ix.Used())
	}
}

// Keep admits until the capacity is full and then refuses every insert
// with ErrNoVictim, evicting nothing: the residents stay, and a key removed
// explicitly (server teardown) frees its room for the next insert.
func TestKeepRefusesWhenFull(t *testing.T) {
	ix := NewIndex(100, NewKeep())
	for _, k := range []string{"a", "b"} {
		if ev, err := ix.Insert(k, 50); err != nil || ev != nil {
			t.Fatalf("insert %s = %v, %v", k, ev, err)
		}
	}
	if ev, err := ix.Insert("c", 10); !errors.Is(err, ErrNoVictim) || ev != nil {
		t.Fatalf("insert into a full keep index = %v, %v; want ErrNoVictim and no eviction", ev, err)
	}
	if _, err := ix.Insert("big", 101); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("insert over the capacity = %v, want ErrTooLarge", err)
	}
	if !ix.Contains("a") || !ix.Contains("b") || ix.Contains("c") || ix.Used() != 100 {
		t.Fatalf("after the refusals: keys %v, used %d; want a and b, 100", ix.Keys(), ix.Used())
	}
	ix.Remove("a")
	if ev, err := ix.Insert("c", 10); err != nil || ev != nil {
		t.Fatalf("insert after a removal = %v, %v", ev, err)
	}
	if _, _, evictions := ix.Stats(); evictions != 0 || ix.Used() != 60 {
		t.Fatalf("%d evictions, used %d; want 0, 60", evictions, ix.Used())
	}
}

// epochHits drives an Index of capacity half the key space through seeded
// permutation epochs — every key read once per epoch in a fresh order,
// the loader's access pattern — inserting each miss (a refused insert is
// a miss the cache does not keep). It returns the hits of every epoch, the
// evictions, and the keys resident at the end, sorted.
func epochHits(seed uint64, p Policy) (hits []int64, evictions int64, resident []string) {
	const n, epochs = 1000, 6
	ix := NewIndex(n/2, p)
	rng := sim.NewRNG(seed)
	for e := 0; e < epochs; e++ {
		before, _, _ := ix.Stats()
		for _, k := range rng.Perm(n) {
			if key := fmt.Sprintf("k%d", k); !ix.Contains(key) {
				_, _ = ix.Insert(key, 1)
			}
		}
		after, _, _ := ix.Stats()
		hits = append(hits, after-before)
	}
	_, _, evictions = ix.Stats()
	resident = ix.Keys()
	slices.Sort(resident)
	return hits, evictions, resident
}

// The hit-rate model behind the keep policy (DESIGN.md §6.3): at capacity
// ½, keep hits exactly half the reads from epoch 2 on and never evicts —
// the offline optimum for a fresh permutation every epoch — while random
// eviction churns to about 0.28; and both replay identically for a seed.
func TestEpochHitRates(t *testing.T) {
	for _, tc := range []struct {
		policy func() Policy
		lo, hi float64
	}{
		{NewKeep, 0.5, 0.5},
		{func() Policy { return NewRandom(3) }, 0.25, 0.32},
	} {
		name := tc.policy().Name()
		hits, evictions, resident := epochHits(7, tc.policy())
		for e, h := range hits[1:] {
			if rate := float64(h) / 1000; rate < tc.lo || rate > tc.hi {
				t.Errorf("%s: epoch %d hit rate %.3f, want [%.2f, %.2f]", name, e+2, rate, tc.lo, tc.hi)
			}
		}
		if name == "keep" && evictions != 0 {
			t.Errorf("keep evicted %d keys", evictions)
		}
		again, _, resident2 := epochHits(7, tc.policy())
		if !slices.Equal(hits, again) || !slices.Equal(resident, resident2) {
			t.Errorf("%s: same seed, different runs: hits %v vs %v", name, hits, again)
		}
		t.Logf("%s: hits per epoch of 1000 reads at capacity 500: %v, %d evictions", name, hits, evictions)
	}
}
