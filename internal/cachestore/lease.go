package cachestore

import (
	"errors"
	"os"
	"sync"
)

// Lease is a ref-counted fd lease on a cached file: the zero-copy serve
// path hands (fd, off, len) to sendfile while the lease pins the entry's
// descriptor, so eviction racing the send cannot close it out from under
// the kernel. Leases are unlink-safe — the store evicting (unlinking) the
// file only marks the entry's slot dead, and the inode survives until the
// last lease releases it (descriptors.go).
//
// Ownership: every Lease must be Released exactly once. A leaked lease
// keeps its descriptor open past Purge; a second Release panics. The
// *os.File from File is only valid until Release.
type Lease struct {
	s    *Store
	e    *entry   // the entry whose slot f is borrowed from; nil when f is the lease's own
	f    *os.File // nil once released
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
// or a miss), and on an entry that holds its descriptor nothing else: one
// critical section, no path, no syscall. A miss (never cached, or evicted
// since the caller's probe) returns ErrNotCached; callers take their miss
// path instead, as they do for any other error — an entry committed over
// the descriptor budget is opened here, and that open can fail.
func (s *Store) Lease(key string) (*Lease, error) {
	s.mu.Lock()
	e := s.ix.lookup(key)
	if e == nil {
		s.mu.Unlock()
		return nil, ErrNotCached
	}
	f, size, path := e.f, e.size, e.path
	if f != nil {
		e.refs++
	}
	s.mu.Unlock()
	if f == nil {
		// Outside the store lock: an eviction in this window is ENOENT
		// (a miss) — the store never gives the name to another file.
		var err error
		if f, err = os.Open(path); err != nil {
			return nil, err
		}
		s.ownOpens.Add(1)
		e = nil
	}
	l := leasePool.Get().(*Lease)
	l.s, l.e, l.f, l.size = s, e, f, size
	return l, nil
}

// File exposes the leased descriptor, for sendfile; valid only until
// Release. Once the lease is released and the entry evicted, a fill may
// overwrite the file in place (Fill.open), so a caller that queued its
// pages on a socket holds the lease until the peer has read them.
func (l *Lease) File() *os.File { return l.f }

// Size reports the cached file's size as indexed at lease time.
func (l *Lease) Size() int64 { return l.size }

// ReadAt preads from the leased descriptor.
func (l *Lease) ReadAt(p []byte, off int64) (int, error) {
	return l.f.ReadAt(p, off)
}

// Release returns the lease: the entry's slot loses one reference (the
// last one off a dead slot closes it), or the lease's own descriptor
// closes, and the Lease struct is recycled. Every Lease leaves
// Store.Lease with a descriptor, so a nil one means the lease was
// released already: that second Release panics.
func (l *Lease) Release() {
	s, e, f := l.s, l.e, l.f
	if f == nil {
		panic("cachestore: Lease released twice")
	}
	*l = Lease{}
	leasePool.Put(l)
	if e != nil {
		s.unref(e)
		return
	}
	_ = f.Close() // read-only, and the read's own result already went back
}
