// Package cachestore implements the node-local cache an HVAC server keeps
// on its fast storage: capacity accounting and the eviction policies from
// §III-G. The paper evicts randomly (datasets
// rarely outgrow the aggregate NVMe of a 1,024-node allocation); LRU and
// FIFO are included for the ablation benchmarks, and Keep, which never
// evicts, for a cache smaller than the dataset.
//
// The Index is content-agnostic — it tracks keys, sizes and eviction state
// — so the same logic drives both the real on-disk store (Store) and the
// simulated device-backed store in internal/summit.
package cachestore

import (
	"errors"
	"fmt"
	"os"
)

// ErrTooLarge is returned when an item can never fit the cache.
var ErrTooLarge = errors.New("cachestore: item larger than capacity")

// ErrNoVictim is returned when eviction is needed but the policy offers
// no victim (always, under Keep).
var ErrNoVictim = errors.New("cachestore: eviction policy offered no victim")

// Policy chooses eviction victims. Implementations are not safe for
// concurrent use; the Index (or its caller) serialises access.
type Policy interface {
	Name() string
	// OnInsert records a new key.
	OnInsert(key string)
	// OnAccess records a hit on key.
	OnAccess(key string)
	// OnRemove forgets key (evicted or explicitly removed).
	OnRemove(key string)
	// Victim proposes a key to evict. It returns "" when it tracks none.
	Victim() string
}

// entry is one resident key's bookkeeping. An evicted entry leaves the
// index but lives on for as long as a Lease points at it.
type entry struct {
	key  string
	size int64

	// The entry's file and descriptor slot, Store's alone (descriptors.go)
	// and guarded by Store.mu; the Index never reads them, and the
	// simulators that share the Index leave them zero.
	path string   // the cache file's name, the entry's alone (Store)
	f    *os.File // the cache file, open; nil when the entry has no slot
	m    []byte   // the cache file mapped read-only; nil when f is not mapped
	refs int      // leases (and the fill that committed it) using f and m
	dead bool     // evicted or purged: the last reference unmaps m, closes f
}

// Index tracks cached keys against a byte capacity.
type Index struct {
	capacity int64
	used     int64
	reserved int64 // set aside for fills in progress (reserve); Store's alone
	policy   Policy
	entries  map[string]*entry

	hits      int64
	misses    int64
	evictions int64
}

// NewIndex builds an index with the given capacity and eviction policy.
func NewIndex(capacity int64, policy Policy) *Index {
	if policy == nil {
		policy = NewRandom(0)
	}
	return &Index{capacity: capacity, policy: policy, entries: make(map[string]*entry)}
}

// Capacity returns the configured byte capacity.
func (ix *Index) Capacity() int64 { return ix.capacity }

// Used returns the bytes currently cached.
func (ix *Index) Used() int64 { return ix.used }

// Len returns the number of cached entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Contains reports whether key is cached, updating hit/miss counters and
// recency state.
func (ix *Index) Contains(key string) bool { return ix.lookup(key) != nil }

// lookup is Contains handing back the entry it found (nil on a miss).
func (ix *Index) lookup(key string) *entry {
	e := ix.entries[key]
	if e == nil {
		ix.misses++
		return nil
	}
	ix.hits++
	ix.policy.OnAccess(key)
	return e
}

// Peek reports whether key is cached without touching counters or recency.
func (ix *Index) Peek(key string) bool {
	_, ok := ix.entries[key]
	return ok
}

// Size returns the stored size of key.
func (ix *Index) Size(key string) (int64, bool) {
	e := ix.entries[key]
	if e == nil {
		return 0, false
	}
	return e.size, true
}

// Insert admits key with the given size, evicting as needed. It returns
// the keys evicted to make room. Inserting an existing key is a no-op.
func (ix *Index) Insert(key string, size int64) (evicted []string, err error) {
	_, victims, err := ix.insert(key, size)
	for _, v := range victims {
		evicted = append(evicted, v.key)
	}
	return evicted, err
}

// insert is Insert in entries: the one admitted (nil when key was already
// resident, or on error) and the ones evicted for it.
func (ix *Index) insert(key string, size int64) (e *entry, evicted []*entry, err error) {
	if ix.entries[key] != nil {
		return nil, nil, nil
	}
	if evicted, err = ix.evictFor(size); err != nil {
		return nil, evicted, err
	}
	e = &entry{key: key, size: size}
	ix.entries[key] = e
	ix.used += size
	ix.policy.OnInsert(key)
	return e, evicted, nil
}

// reserve sets size bytes of the capacity aside for a fill in progress,
// evicting until residents and reservations together leave that room, so
// that two fills cannot both count the bytes one eviction freed. The fill
// gives the reservation back as it inserts. An error reserves nothing.
func (ix *Index) reserve(size int64) (evicted []*entry, err error) {
	if evicted, err = ix.evictFor(ix.reserved + size); err == nil {
		ix.reserved += size
	}
	return evicted, err
}

// evictFor evicts until need more bytes fit beside the residents, and
// returns the entries evicted — also beside an error.
func (ix *Index) evictFor(need int64) (evicted []*entry, err error) {
	if need > ix.capacity {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, need, ix.capacity)
	}
	for ix.used+need > ix.capacity {
		victim := ix.policy.Victim()
		if victim == "" {
			return evicted, fmt.Errorf("%w (need %d bytes, %d used)", ErrNoVictim, need, ix.used)
		}
		evicted = append(evicted, ix.remove(victim))
		ix.evictions++
	}
	return evicted, nil
}

// Remove deletes key (server teardown); it reports whether the key was
// present.
func (ix *Index) Remove(key string) bool { return ix.remove(key) != nil }

// remove is Remove handing back the entry it dropped (nil when absent).
func (ix *Index) remove(key string) *entry {
	e := ix.entries[key]
	if e == nil {
		return nil
	}
	ix.used -= e.size
	delete(ix.entries, key)
	ix.policy.OnRemove(key)
	return e
}

// Keys returns all cached keys in unspecified order.
func (ix *Index) Keys() []string {
	out := make([]string, 0, len(ix.entries))
	for k := range ix.entries {
		out = append(out, k)
	}
	return out
}

// Stats reports hits, misses and evictions since creation.
func (ix *Index) Stats() (hits, misses, evictions int64) {
	return ix.hits, ix.misses, ix.evictions
}
