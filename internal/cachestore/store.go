package cachestore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Store is the real-mode on-disk cache: files copied from the PFS live in
// a flat directory on the node-local device, named by content-independent
// key digest, with eviction driven by an Index. Store is safe for
// concurrent use.
//
// Lock order: commitMu (held across a fill's whole commit, see
// Fill.insert, across the eviction that opens one, see Fill.open, and
// across Purge), then Store.mu, which guards the index, its reservations
// and every entry's descriptor slot. No file is opened, closed or
// unlinked under Store.mu.
type Store struct {
	commitMu sync.Mutex
	mu       sync.Mutex
	dir      string
	ix       *Index

	// ownOpens counts leases that opened a descriptor of their own
	// because the entry had no slot (descriptors.go).
	ownOpens atomic.Int64
	// recycled numbers the files fills took over from evicted entries, for
	// the names they carry until their commit (Fill.open).
	recycled atomic.Int64
}

// NewStore creates (if needed) dir and returns a store with the given
// capacity and policy.
func NewStore(dir string, capacity int64, policy Policy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	return &Store{dir: dir, ix: NewIndex(capacity, policy)}, nil
}

// Dir returns the backing directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) pathFor(key string) string { return cachePath(s.dir, key) }

// cachePath names key's cache file under dir.
func cachePath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:16]))
}

// Contains reports whether key is cached (and counts the hit/miss).
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Contains(key)
}

// Resident reports whether key is cached without touching the hit/miss
// counters or the policy's recency state (Index.Peek under the store
// lock). Probes by the plan pump go through this, so planning does not
// distort the hit accounting the benchmarks report.
func (s *Store) Resident(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Peek(key)
}

// ReadAt reads from the cached file for key at offset off through a
// short-lived fd lease. A miss (not cached, or evicted since the caller's
// Contains check) returns an error; callers read through from the PFS
// instead.
func (s *Store) ReadAt(key string, p []byte, off int64) (int, error) {
	l, err := s.Lease(key)
	if err != nil {
		return 0, err
	}
	n, err := l.ReadAt(p, off)
	l.Release()
	return n, err
}

// Size returns the cached size of key.
func (s *Store) Size(key string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Size(key)
}

// Used reports cached bytes.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Used()
}

// Len reports the number of cached files.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Len()
}

// Stats reports hits, misses and evictions.
func (s *Store) Stats() (hits, misses, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Stats()
}

// Purge removes every cached file — the job-end teardown (§III-D: the
// cache's life cycle is coupled to the job's). Descriptors that leases
// still hold close with those leases.
func (s *Store) Purge() error {
	s.commitMu.Lock() // no fill may rename a file in while its key is being dropped
	defer s.commitMu.Unlock()
	s.mu.Lock()
	gone := make([]*entry, 0, s.ix.Len())
	for _, k := range s.ix.Keys() {
		gone = append(gone, s.ix.remove(k))
	}
	retire(gone)
	s.mu.Unlock()
	return s.discard(gone)
}

// discard finishes what retire began, outside Store.mu: it unlinks the
// files of entries that left the index and drops the references retire
// took, reporting the first unlink error. commitMu must be held — it is
// what keeps a refill of the same key from renaming its file into place
// between the index removal and this unlink.
func (s *Store) discard(gone []*entry) (first error) {
	for _, e := range gone {
		if err := os.Remove(s.pathFor(e.key)); err != nil && first == nil {
			first = err
		}
		if e.f != nil {
			s.unref(e)
		}
	}
	return first
}
