package cachestore

import (
	"os"
	"sync/atomic"
)

// A resident entry owns its cache file's descriptor (entry.f): the fill
// that commits the entry hands over the descriptor it wrote through, and
// every lease borrows it under a reference count, so a warm read opens
// nothing. Eviction and Purge mark the slot dead and whoever drops the
// last reference closes it; reading on through a dead slot is safe — the
// unlinked file's inode lives until the descriptor closes, and a cache
// key always names the same bytes. That is also why only a slot nobody
// references is handed, file and all, to the fill that evicted it
// (Fill.open): the fill overwrites the inode a reader would still be on.
//
// fdBudget bounds how many descriptors entries hold at once. It is
// process-wide because RLIMIT_NOFILE is: a process may run several Stores
// (one per server of an i×1 deployment) against the one limit. Half the
// soft limit goes to entries; the rest is left to sockets, fills, PFS
// reads and the leases below. An entry committed while the budget is
// spent has no slot, and a lease on it opens, uses and closes a
// descriptor of its own.
//
// A slot may also hold the file mapped read-only (entry.m): the store
// maps each file below MapLimit it commits, and a lease hands the mapping
// out for the transport to writev from (DESIGN.md §6.2). The mapping lives
// and dies with the descriptor: the last reference off a dead slot unmaps,
// then closes, and a victim handed to a fill is unmapped before the fill
// writes to it. mapBudget caps the live mappings at half of
// vm.max_map_count, process-wide like fdBudget: the Go runtime maps its
// own memory under the same limit, and a mapping it cannot get crashes the
// process. A file committed past the budget is simply not mapped.
var fdBudget, mapBudget struct {
	limit atomic.Int64 // set once at start-up; tests lower it
	held  atomic.Int64
}

func init() {
	fdBudget.limit.Store(nofileLimit() / 2)
	mapBudget.limit.Store(mapCountLimit() / 2)
}

// DescriptorBudget reports how many cache-file descriptors this process's
// stores may keep open between them.
func DescriptorBudget() int64 { return fdBudget.limit.Load() }

// SetMapBudget caps the live mappings of this process's stores at n and
// returns the cap it replaced. A file committed past the cap is not
// mapped; tests spend the budget to reach the serve that reads it.
func SetMapBudget(n int64) (old int64) { return mapBudget.limit.Swap(n) }

// adopt gives e the open cache file f, and its mapping m (nil for
// none), if the budget has room, holding one reference for the caller.
// Store.mu must be held.
func (e *entry) adopt(f *os.File, m []byte) bool {
	if fdBudget.held.Add(1) > fdBudget.limit.Load() {
		fdBudget.held.Add(-1)
		return false
	}
	e.f, e.m, e.refs = f, m, 1
	return true
}

// mapEntry maps the first size bytes of f for an entry's slot, or returns
// nil when the budget is spent or the map fails.
func mapEntry(f *os.File, size int64) []byte {
	if mapBudget.held.Add(1) > mapBudget.limit.Load() {
		mapBudget.held.Add(-1)
		return nil
	}
	m, err := mapFile(f, size)
	if err != nil {
		mapBudget.held.Add(-1)
		return nil // the entry is read through its descriptor
	}
	return m
}

// unmap undoes mapEntry; nil is no mapping.
func unmap(m []byte) {
	if m != nil {
		unmapFile(m)
		mapBudget.held.Add(-1)
	}
}

// retire marks the slots of entries that just left the index dead and
// takes a reference on each for the caller, who drops it with unref once
// Store.mu is released — so the close never runs under the store lock.
// Store.mu must be held.
func retire(gone []*entry) {
	for _, e := range gone {
		if e.f != nil {
			e.dead = true
			e.refs++
		}
	}
}

// unref drops one reference on e's slot; the last one off a dead slot
// unmaps the file, closes the descriptor and returns both to their
// budgets. Dropping a reference nobody holds panics.
func (s *Store) unref(e *entry) {
	s.mu.Lock()
	e.refs--
	refs, last := e.refs, e.dead && e.refs == 0
	s.mu.Unlock()
	if refs < 0 {
		panic("cachestore: entry slot released more often than referenced")
	}
	if last {
		unmap(e.m)
		_ = e.f.Close() // read side only, and nobody is left to tell
		fdBudget.held.Add(-1)
	}
}
