package cachestore

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
)

// Store is the real-mode on-disk cache: files copied from the PFS live in
// a directory of the store's own on the node-local device, with eviction
// driven by an Index. The store names its files: each is created under a
// name no other file of the store has had, and keeps it for its whole
// life — a fill that recycles an evicted entry's file takes the name with
// it — so no fill ever renames, and an unlinked name is never seen again.
// Store is safe for concurrent use.
//
// Lock order: Store.mu alone. It guards the index, its reservations and
// every entry's descriptor slot. No file is opened, closed or unlinked
// under it.
type Store struct {
	mu  sync.Mutex
	dir string
	ix  *Index

	// ownOpens counts leases that opened a descriptor of their own
	// because the entry had no slot (descriptors.go).
	ownOpens atomic.Int64
	// files numbers the files the store creates (newFile).
	files atomic.Int64
}

// MapLimit is the size below which the store maps the files it commits,
// read-only for their leases (Lease.Mapped), while the mapping budget has
// room: the sendfile knee, under which a server's reply takes a cached
// file's bytes from its mapping, and from which sendfile takes them from
// its descriptor (DESIGN.md §4.3).
const MapLimit = 64 << 10

// NewStore creates (if needed) dir and returns a store with the given
// capacity and policy. The store keeps its files in a fresh directory
// inside dir, so neither a crashed run's leftovers nor a second store on
// the same dir can collide with a name it creates.
func NewStore(dir string, capacity int64, policy Policy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	own, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	return &Store{dir: own, ix: NewIndex(capacity, policy)}, nil
}

// Dir returns the store's own directory, the one its files live in.
func (s *Store) Dir() string { return s.dir }

// newFile creates a cache file under a name the store has never used,
// opened O_RDWR: a fill writes through it and its readers share it.
func (s *Store) newFile() (*os.File, error) {
	path := filepath.Join(s.dir, "c"+strconv.FormatInt(s.files.Add(1), 10))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	return f, nil
}

// Resident reports whether key is cached without touching the hit/miss
// counters or the policy's recency state (Index.Peek under the store
// lock), so a probe does not distort the hit accounting the benchmarks
// report.
func (s *Store) Resident(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Peek(key)
}

// ReadAt reads from the cached file for key at offset off through a
// short-lived fd lease. A miss (not cached, or evicted since the caller's
// Resident check) returns an error; callers read through from the PFS
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
// took, reporting the first unlink error. No lock is needed for the
// unlink: the name is the entry's alone, and the store never reuses it.
func (s *Store) discard(gone []*entry) (first error) {
	for _, e := range gone {
		if err := os.Remove(e.path); err != nil && first == nil {
			first = err
		}
		if e.f != nil {
			s.unref(e)
		}
	}
	return first
}
