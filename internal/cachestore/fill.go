package cachestore

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
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
	// path is where file is linked until Commit renames it into place —
	// not file.Name(), which a recycled file keeps from its first life —
	// and empty when there is nothing (left) to unlink. reserved is what
	// open set aside in the index; it goes back when the fill finishes.
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
// over — the fill overwrites that file's pages in place instead of paying
// an unlink, a close and a create for the same blocks. A victim that is
// leased, has no slot, or ever went to sendfile (a socket may still hold
// its pages) is evicted as ever and the fill creates a temp file. A reservation the policy cannot satisfy (every byte belongs to
// fills in flight) is not an error: the fill goes on unreserved and
// Commit makes the room, or reports the failure.
func (f *Fill) open() error {
	s := f.s
	s.commitMu.Lock() // held across the victims' unlinks and rename, as discard requires
	s.mu.Lock()
	evicted, err := s.ix.reserve(f.size)
	if err == nil {
		f.reserved = f.size
	}
	var victim *entry
	for i, e := range evicted {
		if e.f != nil && e.refs == 0 && !e.sent.Load() {
			victim, evicted = e, append(evicted[:i], evicted[i+1:]...)
			f.file, e.f = e.f, nil
			fdBudget.held.Add(-1) // a fill's descriptor is not an entry's
			break
		}
	}
	retire(evicted)
	s.mu.Unlock()
	_ = s.discard(evicted) // eviction is best-effort; the index entries are already gone
	if victim == nil {
		s.commitMu.Unlock()
		tmp, err := os.CreateTemp(s.dir, "fill-*") // opened O_RDWR: readers share it
		if err != nil {
			return fmt.Errorf("cachestore: %w", err)
		}
		f.file, f.path = tmp, tmp.Name()
		return nil
	}
	// Off the victim's path before commitMu is free for that key's refill.
	old := s.pathFor(victim.key)
	f.path = filepath.Join(s.dir, "fill-r"+strconv.FormatInt(s.recycled.Add(1), 10))
	if err = os.Rename(old, f.path); err != nil {
		_ = os.Remove(old) // the rename failure is the error to report
	}
	s.commitMu.Unlock()
	if err == nil && victim.size != f.size {
		err = f.file.Truncate(f.size)
	}
	if err == nil {
		_, err = f.file.Seek(0, io.SeekStart) // CopyFrom streams through the descriptor's own offset
	}
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
	if f.file != nil { // nil: the fill ended before it had bytes to land
		_ = f.file.Close() // best-effort: everything is written and renamed (or removed) by now
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

// Commit completes the fill: the file is renamed into place and inserted
// into the index, and the new entry keeps the fill's descriptor for its
// leases. A short fill is an error. Either way the writer's reference is
// dropped and waiting readers are woken. Readers holding references keep
// reading the same descriptor — rename does not invalidate it, and it
// stays open at least until the last Release.
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

// insert renames the finished file from the fill's path to its content
// path and then admits the key to the index: a key is visible in the
// index only once its file is openable, so a reader that finds the key
// resident never meets ENOENT for a file that is about to appear. Commits
// are serialized by Store.commitMu, which is what lets the rename run
// outside Store.mu (a rename can queue on the cache directory's lock
// behind other movers' creates, and every handler's index probe would
// queue behind it) while no second fill of the same key can slip between
// the residency check, the rename and the insert. The reservation goes
// back in the insert's critical section, so a fill that reserved evicts
// nothing here; one that could not makes its room now.
func (f *Fill) insert() error {
	s := f.s
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	path := f.path
	f.path = "" // renamed or removed below, either way no longer the fill's to unlink
	if s.Resident(f.key) {
		// A concurrent fill won the key: keep the resident copy.
		return os.Remove(path)
	}
	dst := s.pathFor(f.key)
	if err := os.Rename(path, dst); err != nil {
		f.path = path
		return err
	}
	s.mu.Lock()
	s.ix.reserved -= f.reserved
	f.reserved = 0
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
