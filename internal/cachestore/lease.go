package cachestore

import (
	"errors"
	"os"
	"sync"
)

// Lease is a ref-counted fd lease on a cached file: the zero-copy serve
// path hands (fd, off, len) to sendfile while the lease pins the pooled
// handle, so eviction racing the send cannot close the descriptor out
// from under the kernel. Leases are unlink-safe the same way pooled
// handles are — the store evicting (unlinking) the file only marks the
// handle dead, and the inode survives until the last lease releases it.
//
// Ownership: every Lease must be Released exactly once (the ownerpass
// analyzer enforces this statically). The *os.File from File is only
// valid until Release.
type Lease struct {
	hp   *handlePool
	pf   *pooledFile
	size int64
}

// leasePool recycles Lease structs so a warm zero-copy serve allocates
// nothing.
var leasePool = sync.Pool{New: func() any { return new(Lease) }}

// ErrNotCached is Lease's miss. It is a fixed value because the server's
// read ladder starts every read with a lease, so a cold read pays for this
// error once per request.
var ErrNotCached = errors.New("cachestore: key not cached")

// Lease pins an open descriptor for key's cached file and returns it
// with the file's cached size — the one way to read a cached file. Each
// call is exactly one counting index access (a hit with its recency bump,
// or a miss). A miss (never cached, or evicted since the caller's probe)
// returns ErrNotCached; callers take their miss path instead.
func (s *Store) Lease(key string) (*Lease, error) {
	s.mu.Lock()
	cached := s.ix.Contains(key)
	size, _ := s.ix.Size(key)
	s.mu.Unlock()
	if !cached {
		return nil, ErrNotCached
	}
	pf, err := s.hp.acquire(key, s.dir)
	if err != nil {
		return nil, err
	}
	l := leasePool.Get().(*Lease)
	l.hp, l.pf, l.size = s.hp, pf, size
	return l, nil
}

// File exposes the leased descriptor; valid only until Release.
func (l *Lease) File() *os.File { return l.pf.f }

// Size reports the cached file's size as indexed at lease time.
func (l *Lease) Size() int64 { return l.size }

// ReadAt preads from the leased descriptor.
func (l *Lease) ReadAt(p []byte, off int64) (int, error) {
	return l.pf.f.ReadAt(p, off)
}

// Release returns the lease: the pooled handle loses one reference (the
// last release of a dead handle closes it) and the Lease struct is
// recycled. Releasing an already-released lease is a no-op.
func (l *Lease) Release() {
	hp, pf := l.hp, l.pf
	if hp == nil {
		return
	}
	*l = Lease{}
	leasePool.Put(l)
	hp.release(pf)
}
