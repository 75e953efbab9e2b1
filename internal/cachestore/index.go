// Package cachestore implements the node-local cache an HVAC server keeps
// on its fast storage: capacity accounting and the eviction policies from
// §III-G. The paper evicts randomly (datasets
// rarely outgrow the aggregate NVMe of a 1,024-node allocation); LRU, FIFO
// and CLOCK are included for the ablation benchmarks.
//
// The Index is content-agnostic — it tracks keys, sizes and eviction state
// — so the same logic drives both the real on-disk store (Store) and the
// simulated device-backed store in internal/core.
package cachestore

import (
	"errors"
	"fmt"
)

// ErrTooLarge is returned when an item can never fit the cache.
var ErrTooLarge = errors.New("cachestore: item larger than capacity")

// ErrNoVictim is returned when eviction is needed but the policy offers
// no victim.
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

// Index tracks cached keys against a byte capacity.
type Index struct {
	capacity int64
	used     int64
	policy   Policy
	entries  map[string]int64 // key -> size

	hits      int64
	misses    int64
	evictions int64
}

// NewIndex builds an index with the given capacity and eviction policy.
func NewIndex(capacity int64, policy Policy) *Index {
	if policy == nil {
		policy = NewRandom(0)
	}
	return &Index{capacity: capacity, policy: policy, entries: make(map[string]int64)}
}

// Capacity returns the configured byte capacity.
func (ix *Index) Capacity() int64 { return ix.capacity }

// Used returns the bytes currently cached.
func (ix *Index) Used() int64 { return ix.used }

// Len returns the number of cached entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Policy returns the eviction policy.
func (ix *Index) Policy() Policy { return ix.policy }

// Contains reports whether key is cached, updating hit/miss counters and
// recency state.
func (ix *Index) Contains(key string) bool {
	if _, ok := ix.entries[key]; ok {
		ix.hits++
		ix.policy.OnAccess(key)
		return true
	}
	ix.misses++
	return false
}

// Peek reports whether key is cached without touching counters or recency.
func (ix *Index) Peek(key string) bool {
	_, ok := ix.entries[key]
	return ok
}

// Size returns the stored size of key.
func (ix *Index) Size(key string) (int64, bool) {
	size, ok := ix.entries[key]
	return size, ok
}

// Insert admits key with the given size, evicting as needed. It returns
// the keys evicted to make room. Inserting an existing key is a no-op.
func (ix *Index) Insert(key string, size int64) (evicted []string, err error) {
	if _, ok := ix.entries[key]; ok {
		return nil, nil
	}
	if size > ix.capacity {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, size, ix.capacity)
	}
	for ix.used+size > ix.capacity {
		victim := ix.policy.Victim()
		if victim == "" {
			return evicted, fmt.Errorf("%w (need %d bytes, %d used)", ErrNoVictim, size, ix.used)
		}
		ix.removeLocked(victim)
		ix.evictions++
		evicted = append(evicted, victim)
	}
	ix.entries[key] = size
	ix.used += size
	ix.policy.OnInsert(key)
	return evicted, nil
}

// Remove deletes key (server teardown); it reports whether the key was
// present.
func (ix *Index) Remove(key string) bool {
	if _, ok := ix.entries[key]; !ok {
		return false
	}
	ix.removeLocked(key)
	return true
}

func (ix *Index) removeLocked(key string) {
	ix.used -= ix.entries[key]
	delete(ix.entries, key)
	ix.policy.OnRemove(key)
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
