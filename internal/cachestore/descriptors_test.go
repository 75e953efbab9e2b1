package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hvac/internal/testutil"
)

// limitBudget leaves room for n more entry descriptors in the process-wide
// budget for the rest of the test, whatever earlier tests' stores hold.
func limitBudget(t *testing.T, n int64) {
	t.Helper()
	old := fdBudget.limit.Load()
	fdBudget.limit.Store(fdBudget.held.Load() + n)
	t.Cleanup(func() { fdBudget.limit.Store(old) })
}

// slots reports how many of the store's resident entries hold a
// descriptor, failing the test on a slot a finished test left referenced
// or marked dead, and on a mapping held without a slot.
func slots(t *testing.T, s *Store) (n int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.ix.entries {
		if e.refs != 0 || e.dead {
			t.Errorf("resident entry %s at rest: refs=%d dead=%v", k, e.refs, e.dead)
		}
		if e.m != nil && e.f == nil {
			t.Errorf("resident entry %s holds a mapping without a slot", k)
		}
		if e.f != nil {
			n++
		}
	}
	return n
}

func keyBytes(i int) string { return strings.Repeat(string(rune('a'+i%26)), 64) }

// TestRefilledKeyKeepsItsDescriptor is the regression for the handle
// pool's stale-FIFO bug: a key evicted and filled again sat in the pool's
// FIFO twice, and the earlier slot aging out closed the fresh descriptor.
// An entry's descriptor now lives and dies with the entry: however many
// other keys are leased in between, the refilled key is still read
// through the descriptor its refill committed, and the process holds
// exactly one descriptor per resident key.
func TestRefilledKeyKeepsItsDescriptor(t *testing.T) {
	s := newTestStore(t, 3*64, NewFIFO())
	for i := 0; i < 4; i++ { // the fourth fill evicts k0
		if err := put(s, fmt.Sprintf("k%d", i), 64, keyBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Resident("k0") {
		t.Fatal("k0 still resident after three more fills into room for three")
	}
	if err := put(s, "k0", 64, keyBytes(0)); err != nil { // refill; evicts k1
		t.Fatal(err)
	}
	l, err := s.Lease("k0")
	if err != nil {
		t.Fatal(err)
	}
	held := l.File()
	l.Release()

	buf := make([]byte, 64)
	for i := 0; i < 300; i++ { // more leases than the old pool had slots
		for _, k := range []string{"k2", "k3"} {
			if _, err := s.ReadAt(k, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	l, err = s.Lease("k0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if l.File() != held {
		t.Fatal("the refilled key changed descriptors with no eviction in between")
	}
	if _, err := l.ReadAt(buf, 0); err != nil || string(buf) != keyBytes(0) {
		t.Fatalf("read through the refilled key's descriptor: %q, %v", buf, err)
	}
	if fds, ok := testutil.OpenFDs(s.Dir()); ok && len(fds) != s.Len() {
		t.Fatalf("%d descriptors open on %d resident files: %v", len(fds), s.Len(), fds)
	}
}

// TestWarmLeaseOpensNothing: an entry filled through PutWriter/Commit is
// leased through the descriptor its fill wrote — no open, ever.
func TestWarmLeaseOpensNothing(t *testing.T) {
	s := newTestStore(t, 1<<20, NewRandom(1))
	fills := make(map[string]*os.File)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := put(s, key, 64, keyBytes(i)); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		fills[key] = s.ix.entries[key].f // what Fill.insert handed the entry
		s.mu.Unlock()
	}
	buf := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("k%d", i%10)
		l, err := s.Lease(key)
		if err != nil {
			t.Fatal(err)
		}
		if l.File() != fills[key] {
			t.Fatalf("lease %d on %s is not on the descriptor the fill committed", i, key)
		}
		if _, err := l.ReadAt(buf, 0); err != nil || string(buf) != keyBytes(i%10) {
			t.Fatalf("lease %d on %s read %q, %v", i, key, buf, err)
		}
		l.Release()
	}
	if n := s.ownOpens.Load(); n != 0 {
		t.Fatalf("%d opens across 1000 warm leases, want 0", n)
	}
}

// TestEvictionHandsOverOnlyAnUnreferencedDescriptor pins which victims a
// fill may recycle: the file of an entry nobody references becomes the
// new entry's file, name, descriptor and inode; one under lease is
// unlinked as before and the fill writes a fresh file. A lease whose file
// went out through Lease.File is no exception either way: sendfile leaves
// the file's own pages queued in the socket, so the transport holds that
// lease until the peer has read them, and once it lets go the file is
// anyone's to overwrite.
func TestEvictionHandsOverOnlyAnUnreferencedDescriptor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		touch   func(t *testing.T, l *Lease) // what happens to the victim's lease before its eviction
		recycle bool
	}{
		{"idle", func(t *testing.T, l *Lease) { l.Release() }, true},
		{"read and released", func(t *testing.T, l *Lease) { _, _ = l.ReadAt(make([]byte, 8), 0); l.Release() }, true},
		{"leased", func(t *testing.T, l *Lease) { t.Cleanup(l.Release) }, false},
		{"sent and released", func(t *testing.T, l *Lease) { _ = l.File(); l.Release() }, true},
		{"sent, lease still held", func(t *testing.T, l *Lease) { _ = l.File(); t.Cleanup(l.Release) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t, 64, NewFIFO()) // room for one
			if err := put(s, "old", 64, keyBytes(0)); err != nil {
				t.Fatal(err)
			}
			l, err := s.Lease("old")
			if err != nil {
				t.Fatal(err)
			}
			old := l.f
			tc.touch(t, l)
			if err := put(s, "new", 48, keyBytes(1)[:48]); err != nil { // smaller: a recycled file is cut
				t.Fatal(err)
			}
			s.mu.Lock()
			handed := s.ix.entries["new"].f == old
			path := s.ix.entries["new"].path
			s.mu.Unlock()
			if fi, err := os.Stat(path); handed != tc.recycle || err != nil || fi.Size() != 48 {
				t.Fatalf("new entry on the old entry's descriptor: %v, want %v; its file: %v, %v", handed, tc.recycle, fi, err)
			}
			if (path == old.Name()) != tc.recycle {
				t.Fatalf("new entry's file %s, the old one's %s: a recycled file keeps its name, a fresh one has its own", path, old.Name())
			}
			if got, err := readAll(s, "new"); err != nil || string(got) != keyBytes(1)[:48] {
				t.Fatalf("new entry reads %q, %v", got, err)
			}
			if _, _, ev := s.Stats(); ev != 1 || s.Resident("old") {
				t.Fatalf("%d evictions, old resident: %v; want the one eviction either way", ev, s.Resident("old"))
			}
		})
	}
}

// TestLeaseBudgetDegrades forces the descriptor budget below the working
// set: every lease still reads its key's bytes, entries over the budget
// are read through a descriptor the lease opens and closes itself, the
// process never holds more cache descriptors than the budget plus the
// leases in flight, and a lease of either kind held across its key's
// eviction keeps reading the old bytes.
func TestLeaseBudgetDegrades(t *testing.T) {
	const budget, keys = 4, 12
	limitBudget(t, budget)
	s := newTestStore(t, keys*64, NewFIFO())
	for i := 0; i < keys; i++ {
		if err := put(s, fmt.Sprintf("k%d", i), 64, keyBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := slots(t, s); got != budget {
		t.Fatalf("%d entries hold a descriptor, want the budget's %d", got, budget)
	}
	buf := make([]byte, 64)
	var inFlight []*Lease
	for i := 0; i < keys; i++ {
		l, err := s.Lease(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.ReadAt(buf, 0); err != nil || string(buf) != keyBytes(i) {
			t.Fatalf("k%d read %q, %v", i, buf, err)
		}
		if i == 0 || i == keys-1 { // FIFO: k0 has a slot, the last key has none
			inFlight = append(inFlight, l)
		} else {
			l.Release()
		}
		if fds, ok := testutil.OpenFDs(s.Dir()); ok && len(fds) > budget+len(inFlight) {
			t.Fatalf("%d cache descriptors open, budget %d + %d leases in flight", len(fds), budget, len(inFlight))
		}
	}
	if got := s.ownOpens.Load(); got != keys-budget {
		t.Fatalf("%d leases opened their own descriptor, want %d", got, keys-budget)
	}

	// Push every original key out from under the two held leases.
	for i := 0; i < keys; i++ {
		if err := put(s, fmt.Sprintf("n%d", i), 64, keyBytes(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for j, i := range []int{0, keys - 1} {
		if s.Resident(fmt.Sprintf("k%d", i)) {
			t.Fatalf("k%d survived %d fills into a full store", i, keys)
		}
		if _, err := inFlight[j].ReadAt(buf, 0); err != nil || string(buf) != keyBytes(i) {
			t.Fatalf("lease held across k%d's eviction read %q, %v", i, buf, err)
		}
		inFlight[j].Release()
	}
	if fds, ok := testutil.OpenFDs(s.Dir()); ok && len(fds) > budget {
		t.Fatalf("%d cache descriptors open at rest, budget %d: %v", len(fds), budget, fds)
	}
	slots(t, s)
}

// limitMaps leaves room for n more mappings in the process-wide budget for
// the rest of the test, whatever earlier tests' stores hold.
func limitMaps(t *testing.T, n int64) {
	t.Helper()
	old := mapBudget.limit.Load()
	mapBudget.limit.Store(mapBudget.held.Load() + n)
	t.Cleanup(func() { mapBudget.limit.Store(old) })
}

// TestMapBudgetDegrades forces the mapping budget below the working set,
// down to none: an entry committed past it is simply not mapped, and its
// leases hand out no mapping and read the same bytes through the
// descriptor, while each entry within it hands out a mapping of exactly
// its file's bytes. A mapping leased across its key's eviction keeps those
// bytes, the budget it frees goes to later commits, and once the store is
// purged and the last lease released no mapping is left.
func TestMapBudgetDegrades(t *testing.T) {
	for _, budget := range []int64{0, 4} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			const keys = 12
			maps := mapBudget.held.Load()
			limitMaps(t, budget)
			s := newTestStore(t, keys*64, NewFIFO())
			for i := 0; i < keys; i++ {
				if err := put(s, fmt.Sprintf("k%d", i), 64, keyBytes(i)); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, 64)
			var mapped int64
			var held *Lease // k0's: FIFO evicts it first
			for i := 0; i < keys; i++ {
				l, err := s.Lease(fmt.Sprintf("k%d", i))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := l.ReadAt(buf, 0); err != nil || string(buf) != keyBytes(i) {
					t.Fatalf("k%d read %q, %v", i, buf, err)
				}
				if m := l.Mapped(); m != nil {
					mapped++
					if string(m) != keyBytes(i) {
						t.Fatalf("k%d's mapping holds %q", i, m)
					}
				}
				if i == 0 {
					held = l
				} else {
					l.Release()
				}
			}
			if got := mapBudget.held.Load() - maps; mapped != budget || got != budget {
				t.Fatalf("%d leases got a mapping, %d mappings live; want the budget's %d", mapped, got, budget)
			}

			for i := 0; i < keys; i++ { // push every key out, k0 from under its lease
				if err := put(s, fmt.Sprintf("n%d", i), 64, keyBytes(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			if s.Resident("k0") {
				t.Fatal("k0 survived a store's worth of fills")
			}
			if got := mapBudget.held.Load() - maps; got != budget {
				t.Fatalf("%d mappings live after the refill, want the budget's %d", got, budget)
			}
			if m := held.Mapped(); (m != nil) != (budget > 0) || m != nil && string(m) != keyBytes(0) {
				t.Fatalf("k0's mapping across its eviction: %q", m)
			}
			if err := s.Purge(); err != nil {
				t.Fatal(err)
			}
			if got := mapBudget.held.Load() - maps; got != min(budget, 1) {
				t.Fatalf("%d mappings live after Purge, want only the held lease's", got)
			}
			if _, err := held.ReadAt(buf, 0); err != nil || string(buf) != keyBytes(0) {
				t.Fatalf("k0's lease across Purge read %q, %v", buf, err)
			}
			held.Release()
			if got := mapBudget.held.Load() - maps; got != 0 {
				t.Fatalf("%d mappings live after the last lease", got)
			}
		})
	}
}

// TestPurgeReturnsDescriptors: Purge closes every entry's descriptor, a
// lease in flight keeps its own until Release, and then the process is
// back to the descriptors it started with.
func TestPurgeReturnsDescriptors(t *testing.T) {
	testutil.CheckFDs(t)
	held := fdBudget.held.Load()
	s := newTestStore(t, 1<<20, NewRandom(1))
	for i := 0; i < 50; i++ {
		if err := put(s, fmt.Sprintf("k%d", i), 64, keyBytes(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fdBudget.held.Load() - held; got != 50 {
		t.Fatalf("50 resident entries hold %d descriptors", got)
	}
	l, err := s.Lease("k7")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Purge(); err != nil {
		t.Fatal(err)
	}
	if got := fdBudget.held.Load() - held; got != 1 {
		t.Fatalf("%d descriptors held after Purge, want the one under lease", got)
	}
	buf := make([]byte, 64)
	if _, err := l.ReadAt(buf, 0); err != nil || string(buf) != keyBytes(7) {
		t.Fatalf("lease held across Purge read %q, %v", buf, err)
	}
	l.Release()
	if got := fdBudget.held.Load() - held; got != 0 {
		t.Fatalf("%d descriptors held after the last release", got)
	}
}

// TestLeaseEvictRefillStress runs leases against continuous eviction and
// refill on a store with room for two of three keys. With the budget
// ample, a resident entry always has its descriptor, so the only way a
// lease may fail is the index saying the key is gone (resident ⇒
// leasable); every granted lease reads its own key's bytes; and when the
// dust settles every slot's reference count is back to zero and the
// budget holds exactly one descriptor per resident entry.
func TestLeaseEvictRefillStress(t *testing.T) {
	held := fdBudget.held.Load()
	s := newTestStore(t, 2*64, NewFIFO())
	for k := 0; k < 2; k++ { // at capacity before the first lease
		if err := put(s, fmt.Sprintf("k%d", k), 64, keyBytes(k)); err != nil {
			t.Fatal(err)
		}
	}
	var granted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 400; i++ {
				k := (w + i) % 3
				key := fmt.Sprintf("k%d", k)
				if w%2 == 0 {
					if err := put(s, key, 64, keyBytes(k)); err != nil {
						t.Errorf("put %s: %v", key, err)
					}
					continue
				}
				l, err := s.Lease(key)
				if err != nil {
					if !errors.Is(err, ErrNotCached) {
						t.Errorf("lease %s: %v, want only ErrNotCached", key, err)
					}
					continue
				}
				granted.Add(1)
				if _, err := l.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, []byte(keyBytes(k))) {
					t.Errorf("lease on %s read %q, %v", key, buf, err)
				}
				l.Release()
			}
		}(w)
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("no lease was ever granted: the stress exercised nothing")
	}
	if n := s.ownOpens.Load(); n != 0 {
		t.Fatalf("%d leases opened their own descriptor under an ample budget", n)
	}
	if got, want := slots(t, s), s.Len(); got != want {
		t.Fatalf("%d of %d resident entries hold a descriptor", got, want)
	}
	if got := fdBudget.held.Load() - held; got != int64(s.Len()) {
		t.Fatalf("budget holds %d descriptors for %d resident entries", got, s.Len())
	}
	if err := s.Purge(); err != nil {
		t.Fatal(err)
	}
	if got := fdBudget.held.Load() - held; got != 0 {
		t.Fatalf("budget holds %d descriptors after Purge", got)
	}
}
