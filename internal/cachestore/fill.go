package cachestore

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Fill is an in-progress streaming insert: the writer (a data-mover)
// appends bytes as they arrive from the PFS while readers are served the
// prefix that has already landed. This is the serve-from-fill primitive:
// a cold read no longer needs its own PFS pass — it attaches to the fill
// and blocks only until the segment it wants is down.
//
// Life cycle: PutWriter creates the fill holding one reference for the
// writer; Commit (or Abort) finishes the write side and drops that
// reference. Readers bracket each ReadAt between Acquire and Release;
// once the last reference is released after the fill has finished, the
// backing read handle closes. A committed fill's bytes stay readable by
// existing holders even if the cache entry is evicted immediately — the
// open descriptor outlives the unlink.
type Fill struct {
	s    *Store
	key  string
	size int64
	// file is both the write handle (the filler appends) and the shared
	// read handle (attached readers pread) — WriteAt/ReadAt carry their
	// own offsets, so one descriptor serves both sides and the second
	// open a split pair would cost is saved on every fill. After the
	// last Release — Commit/Abort AND every reader done — it closes,
	// unless Commit handed it to the cache entry (kept, below).
	file *os.File
	// kept is the committed entry that adopted file as its descriptor;
	// the fill's references then ride on one reference to its slot. Set
	// by the committer before it drops its own reference.
	kept *entry

	mu       sync.Mutex
	cond     *sync.Cond
	written  int64
	err      error // terminal error after Abort
	finished bool  // Commit or Abort has run
	refs     int
}

// PutWriter starts a streaming insert of size bytes under key — the one
// way into the cache. Nothing is reserved in the index until Commit:
// Contains stays false during the fill (callers attach through their own
// fill registry, not the index).
func (s *Store) PutWriter(key string, size int64) (*Fill, error) {
	if size < 0 {
		return nil, fmt.Errorf("cachestore: negative fill size %d for %s", size, key)
	}
	tmp, err := os.CreateTemp(s.dir, "fill-*") // opened O_RDWR: readers share it
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	f := &Fill{s: s, key: key, size: size, file: tmp, refs: 1}
	f.cond = sync.NewCond(&f.mu)
	return f, nil
}

// Key returns the cache key being filled.
func (f *Fill) Key() string { return f.key }

// Size returns the declared total size of the fill.
func (f *Fill) Size() int64 { return f.size }

// Write appends p to the fill and wakes readers waiting for the new
// prefix. Only the creator may call it, sequentially, and never mixed
// with CopyFrom on the same fill.
func (f *Fill) Write(p []byte) (int, error) {
	f.mu.Lock()
	at := f.written
	f.mu.Unlock()
	if at+int64(len(p)) > f.size {
		return 0, fmt.Errorf("cachestore: fill %s overflows declared size %d", f.key, f.size)
	}
	n, err := f.file.WriteAt(p, at)
	f.mu.Lock()
	f.written += int64(n)
	f.cond.Broadcast()
	f.mu.Unlock()
	return n, err
}

// fillChunk bounds one CopyFrom pass, and with it how long an attached
// reader can wait before freshly landed bytes become visible to it.
const fillChunk = 1 << 20

// CopyFrom streams size bytes from src at off into the fill through
// os.File.ReadFrom, which moves a regular source — the PFS file, the one
// production source — inside the kernel (copy_file_range) and falls back
// to a read/write loop for anything else. Chunking keeps serve-from-fill
// live: readers wake after every fillChunk, not after the whole file.
//
// Only the creator may call it, and never mixed with Write: CopyFrom
// advances the file handle's own offset, which tracks written only
// while every byte arrives through here.
func (f *Fill) CopyFrom(src *os.File, off, size int64) (int64, error) {
	if off > 0 {
		if _, err := src.Seek(off, io.SeekStart); err != nil {
			return 0, err
		}
	}
	var total int64
	for total < size {
		n := min(size-total, fillChunk)
		f.mu.Lock()
		at := f.written
		f.mu.Unlock()
		if at+n > f.size {
			return total, fmt.Errorf("cachestore: fill %s overflows declared size %d", f.key, f.size)
		}
		w, err := f.file.ReadFrom(&io.LimitedReader{R: src, N: n})
		// Watermark ordering: the f.written store and the Broadcast sit in
		// one critical section, for every chunk including the final
		// partial one, so a ReadAt blocked in cond.Wait can never consume
		// a wakeup before the watermark covers the bytes — Wait re-checks
		// f.written under f.mu (regression: TestCopyFromFinalPartialChunkWakes).
		f.mu.Lock()
		f.written += w
		f.cond.Broadcast()
		f.mu.Unlock()
		total += w
		if err != nil {
			return total, err
		}
		if w < n {
			// src ran out early (it shrank under us): stop here and let
			// Commit flag the short fill.
			return total, nil
		}
	}
	return total, nil
}

// Acquire takes a read reference. It fails once the fill has finished
// and every earlier holder released — the fill has let go of the backing
// handle then, and the caller should read the committed cache entry (or
// the PFS) instead.
func (f *Fill) Acquire() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refs == 0 {
		return false
	}
	f.refs++
	return true
}

// Release drops a reference taken by Acquire (or the creator's implicit
// one, dropped by Commit/Abort). The last release after finishing lets go
// of the shared handle: back to the entry that adopted it, else closed.
func (f *Fill) Release() {
	f.mu.Lock()
	f.refs--
	done := f.refs == 0
	f.mu.Unlock()
	if !done {
		return
	}
	if f.kept != nil {
		f.s.unref(f.kept)
		return
	}
	_ = f.file.Close() // best-effort: everything is written and renamed (or removed) by now
}

// ReadAt serves p from the fill at off, blocking until the requested
// range has been written, the fill aborts, or the declared size bounds
// the read (short reads at the tail return io.EOF, matching os.File).
// Callers must hold a reference via Acquire.
func (f *Fill) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("cachestore: negative fill read offset %d", off)
	}
	if off >= f.size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > f.size {
		want = f.size - off
	}
	f.mu.Lock()
	for f.written < off+want && f.err == nil {
		f.cond.Wait()
	}
	err := f.err
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n, rerr := f.file.ReadAt(p[:want], off)
	if rerr == nil && want < int64(len(p)) {
		rerr = io.EOF
	}
	return n, rerr
}

// Commit completes the fill: the temp file is renamed into place and
// inserted into the index (evicting as needed), and the new entry keeps
// the fill's descriptor for its leases. A short fill is an error. Either
// way the writer's reference is dropped and waiting readers are woken.
// Readers holding references keep reading the same descriptor — rename
// does not invalidate it, and it stays open at least until the last
// Release.
func (f *Fill) Commit() error {
	f.mu.Lock()
	if f.finished {
		f.mu.Unlock()
		return fmt.Errorf("cachestore: fill %s already finished", f.key)
	}
	short := f.written != f.size
	f.mu.Unlock()
	if short {
		err := fmt.Errorf("cachestore: short fill for %s: %d of %d bytes", f.key, f.written, f.size)
		f.Abort(err)
		return err
	}
	if err := f.insert(); err != nil {
		f.mu.Lock()
		f.err = err
		f.finished = true
		f.cond.Broadcast()
		f.mu.Unlock()
		_ = os.Remove(f.file.Name()) // the insert failure is the error to report
		f.Release()
		return err
	}
	f.mu.Lock()
	f.finished = true
	f.cond.Broadcast()
	f.mu.Unlock()
	f.Release()
	return nil
}

// insert renames the finished temp file to its content path and then
// admits the key to the index: a key is visible in the index only once
// its file is openable, so a reader that finds the key resident never
// meets ENOENT for a file that is about to appear. Commits are serialized
// by Store.commitMu, which is what lets the rename run outside Store.mu
// (a rename can queue on the cache directory's lock behind other movers'
// creates, and every handler's index probe would queue behind it) while
// no second fill of the same key can slip between the residency check,
// the rename and the insert.
func (f *Fill) insert() error {
	s := f.s
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.Resident(f.key) {
		// A concurrent fill won the key: keep the resident copy.
		return os.Remove(f.file.Name())
	}
	dst := s.pathFor(f.key)
	if err := os.Rename(f.file.Name(), dst); err != nil {
		return err
	}
	s.mu.Lock()
	e, evicted, err := s.ix.insert(f.key, f.size)
	if e != nil && e.adopt(f.file) {
		f.kept = e
	}
	retire(evicted)
	s.mu.Unlock()
	_ = s.discard(evicted) // eviction is best-effort; the index entries are already gone
	if err != nil {
		_ = os.Remove(dst) // the insert failure is the error to report
	}
	return err
}

// Abort terminates the fill with err (which readers will observe),
// removes the temp file, and drops the writer's reference.
func (f *Fill) Abort(err error) {
	if err == nil {
		err = fmt.Errorf("cachestore: fill %s aborted", f.key)
	}
	f.mu.Lock()
	if f.finished {
		f.mu.Unlock()
		return
	}
	f.err = err
	f.finished = true
	f.cond.Broadcast()
	f.mu.Unlock()
	// The unlink does not invalidate the shared descriptor: readers that
	// already passed the error check finish their pread, and the last
	// Release closes it.
	_ = os.Remove(f.file.Name()) // best-effort cleanup of the partial fill
	f.Release()
}
