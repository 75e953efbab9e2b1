package cachestore

import (
	"fmt"
	"io"
	"math/bits"
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
//
// The fill takes its cache file when it first has bytes to land (open),
// and an object of at most one fillChunk is answered from a staging buffer
// before that (CopyFrom; DESIGN.md §10.4).
type Fill struct {
	s    *Store
	key  string
	size int64
	// file is both the write handle (the filler appends) and the shared
	// read handle (attached readers pread) — WriteAt/ReadAt carry their
	// own offsets, so one descriptor serves both sides and the second
	// open a split pair would cost is saved on every fill. After the
	// last Release — Commit/Abort AND every reader done — it closes,
	// unless Commit handed it to the cache entry (kept, below). Nil until
	// open; readers look at it only once the watermark says bytes are in it.
	file *os.File
	// path names file while the fill alone owns it, and is empty once the
	// committed entry has taken it (or before open): what finish unlinks.
	// reserved is what open set aside in the index; it goes back when the
	// fill finishes.
	path     string
	reserved int64
	// kept is the committed entry that adopted file as its descriptor;
	// the fill's references then ride on one reference to its slot. Set
	// by the committer before it drops its own reference.
	kept *entry

	finished bool // Commit or Abort has run; the creator's alone

	mu      sync.Mutex
	cond    *sync.Cond
	written int64 // advanced by the creator only, which reads it unlocked
	// stage holds the first written bytes of a staged fill until they are
	// in file; while it is set, readers copy out of it under mu.
	stage *[]byte
	err   error // terminal error after Abort
	refs  int
}

// PutWriter starts a streaming insert of size bytes under key — the one
// way into the cache. It touches neither the index nor the directory:
// Contains stays false during the fill (callers attach through their own
// fill registry, not the index), and the file is taken when bytes land.
func (s *Store) PutWriter(key string, size int64) (*Fill, error) {
	if size < 0 {
		return nil, fmt.Errorf("cachestore: negative fill size %d for %s", size, key)
	}
	f := &Fill{s: s, key: key, size: size, refs: 1}
	f.cond = sync.NewCond(&f.mu)
	return f, nil
}

// Key returns the cache key being filled.
func (f *Fill) Key() string { return f.key }

// Size returns the declared total size of the fill.
func (f *Fill) Size() int64 { return f.size }

// open gives the fill its cache file and its room in the index. When the
// index is full this is where the eviction happens, with the fill's size
// reserved so that a concurrent fill cannot count the same freed bytes;
// and the first victim whose descriptor nobody else references hands it
// over, name and all — the fill overwrites that file's pages in place
// instead of paying an unlink, a close and a create for the same blocks.
// A victim that is leased (a sendfile serve holds its lease until the peer
// has read the pages) or has no slot is evicted as ever and the fill
// creates a file. A reservation the policy cannot satisfy (every byte
// belongs to fills in flight) is not an error: the fill goes on
// unreserved and Commit makes the room, or reports the failure.
func (f *Fill) open() error {
	s := f.s
	s.mu.Lock()
	evicted, err := s.ix.reserve(f.size)
	if err == nil {
		f.reserved = f.size
	}
	var victim *entry
	for i, e := range evicted {
		if e.f != nil && e.refs == 0 {
			victim, evicted = e, append(evicted[:i], evicted[i+1:]...)
			f.file, f.path, e.f = e.f, e.path, nil
			fdBudget.held.Add(-1) // a fill's descriptor is not an entry's
			break
		}
	}
	retire(evicted)
	s.mu.Unlock()
	_ = s.discard(evicted) // eviction is best-effort; the index entries are already gone
	if victim == nil {
		file, err := s.newFile()
		if err != nil {
			return err
		}
		f.file, f.path = file, file.Name()
		return nil
	}
	if victim.size != f.size {
		if err := f.file.Truncate(f.size); err != nil {
			return err
		}
	}
	_, err = f.file.Seek(0, io.SeekStart) // CopyFrom streams through the descriptor's own offset
	return err
}

// land makes sure the fill has its file and a staged payload is in it.
func (f *Fill) land() error {
	if f.file == nil {
		if err := f.open(); err != nil {
			return err
		}
	}
	if f.stage != nil {
		if _, err := f.file.WriteAt((*f.stage)[:f.written], 0); err != nil {
			return err
		}
		f.unstage()
	}
	return nil
}

// unstage returns the staging buffer, if the fill still has one.
func (f *Fill) unstage() {
	f.mu.Lock()
	buf := f.stage
	f.stage = nil
	f.mu.Unlock()
	if buf != nil {
		stagePools[bits.Len64(uint64(len(*buf)-1))-minStageClass].Put(buf)
	}
}

// stagePools hold staging buffers by power-of-two size class, 4 KiB to
// fillChunk, so that a small object's fill does not pin a chunk-sized one.
const minStageClass = 12

var stagePools [21 - minStageClass]sync.Pool

func getStage(n int64) *[]byte {
	c := max(bits.Len64(uint64(n-1)), minStageClass)
	if p, ok := stagePools[c-minStageClass].Get().(*[]byte); ok {
		return p
	}
	b := make([]byte, 1<<c)
	return &b
}

// fillChunk bounds one streaming CopyFrom pass, and with it how long an
// attached reader can wait before freshly landed bytes become visible to
// it; an object that fits one chunk is staged in memory instead.
const fillChunk = 1 << 20

// CopyFrom moves size bytes from src at off into the fill. A whole object
// of at most one fillChunk is staged: one pread into a pooled buffer, the
// watermark published at once — attached readers are answered from memory
// — and then the write to the cache file, off the readers' path. Anything
// else streams through os.File.ReadFrom, which moves a regular source —
// the PFS file, the one production source — inside the kernel
// (copy_file_range) and falls back to a read/write loop for anything
// else; readers wake after every fillChunk, not after the whole file.
//
// Only the creator may call it: the streaming path advances the file
// handle's own offset, which tracks written only while every byte
// arrives through here.
func (f *Fill) CopyFrom(src *os.File, off, size int64) (int64, error) {
	if f.written == 0 && size == f.size && 0 < size && size <= fillChunk {
		buf := getStage(size)
		n, err := src.ReadAt((*buf)[:size], off)
		if err == io.EOF {
			err = nil // src shrank under us: Commit flags the short fill
		}
		f.mu.Lock()
		f.stage, f.written = buf, int64(n)
		f.cond.Broadcast()
		f.mu.Unlock()
		if err == nil {
			err = f.land()
		}
		return int64(n), err
	}
	if err := f.land(); err != nil {
		return 0, err
	}
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
// A release with no reference left to drop panics.
func (f *Fill) Release() {
	f.mu.Lock()
	f.refs--
	refs := f.refs
	f.mu.Unlock()
	if refs < 0 {
		panic("cachestore: Fill released more often than acquired")
	}
	if refs > 0 {
		return
	}
	if f.kept != nil {
		f.s.unref(f.kept)
		return
	}
	if f.file != nil { // nil: the fill ended before it had bytes to land
		_ = f.file.Close() // best-effort: everything is written (or the file removed) by now
	}
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
	want := min(int64(len(p)), f.size-off)
	f.mu.Lock()
	for f.written < off+want && f.err == nil {
		f.cond.Wait()
	}
	err, staged := f.err, f.stage != nil
	if err == nil && staged {
		// Under mu, so the buffer cannot go back to its pool mid-copy.
		copy(p[:want], (*f.stage)[off:])
	}
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	n := int(want)
	if !staged {
		n, err = f.file.ReadAt(p[:want], off)
	}
	if err == nil && want < int64(len(p)) {
		err = io.EOF
	}
	return n, err
}

// Commit completes the fill: the key is inserted into the index, and the
// new entry takes the fill's file, name and descriptor for its leases. A
// short fill is an error. Either way the writer's reference is dropped
// and waiting readers are woken. Readers holding references keep reading
// the same descriptor — it stays open at least until the last Release.
func (f *Fill) Commit() error {
	if f.finished {
		return fmt.Errorf("cachestore: fill %s already finished", f.key)
	}
	var err error
	if f.written != f.size {
		err = fmt.Errorf("cachestore: short fill for %s: %d of %d bytes", f.key, f.written, f.size)
	} else if err = f.land(); err == nil { // an empty fill takes its file here
		err = f.insert()
	}
	f.finish(err)
	return err
}

// insert admits the key to the index with the fill's file, which has been
// openable under its name since open: the residency check and the insert
// are one critical section, so a second fill of the key that lost the race
// finds the winner and finish unlinks the loser's file. The reservation
// goes back in the same section, so a fill that reserved evicts nothing
// here; one that could not makes its room now.
func (f *Fill) insert() error {
	s := f.s
	s.mu.Lock()
	s.ix.reserved -= f.reserved
	f.reserved = 0
	e, evicted, err := s.ix.insert(f.key, f.size) // nil e: resident already, or err
	if e != nil {
		e.path, f.path = f.path, ""
		if e.adopt(f.file) {
			f.kept = e
		}
	}
	retire(evicted)
	s.mu.Unlock()
	_ = s.discard(evicted) // eviction is best-effort; the index entries are already gone
	return err
}

// Abort terminates the fill with err (which readers will observe),
// removes its file, and drops the writer's reference.
func (f *Fill) Abort(err error) {
	if err == nil {
		err = fmt.Errorf("cachestore: fill %s aborted", f.key)
	}
	if !f.finished {
		f.finish(err)
	}
}

// finish ends the write side, committed (err nil) or not: readers wake,
// to err if there is one, and what the fill still holds — staging buffer,
// uncommitted file, reservation, the writer's reference — goes back.
func (f *Fill) finish(err error) {
	f.finished = true
	f.mu.Lock()
	f.err = err
	f.cond.Broadcast()
	f.mu.Unlock()
	f.unstage()
	if f.path != "" {
		// The unlink does not invalidate the shared descriptor: readers past
		// the error check finish their pread, and the last Release closes it.
		_ = os.Remove(f.path) // best-effort cleanup of the partial fill
	}
	if f.reserved != 0 {
		f.s.mu.Lock()
		f.s.ix.reserved -= f.reserved
		f.s.mu.Unlock()
		f.reserved = 0
	}
	f.Release()
}
