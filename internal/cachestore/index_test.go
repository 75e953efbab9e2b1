package cachestore

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
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
