package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"hvac/internal/testutil"
)

// srcFile writes data beside the store and opens it, for a test that
// drives PutWriter/CopyFrom itself.
func srcFile(t *testing.T, s *Store, data []byte) *os.File {
	t.Helper()
	p := filepath.Join(filepath.Dir(s.Dir()), fmt.Sprintf("src-%d", len(data)))
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// TestAbortMidStageWakesReaders: a fill whose source ran short answers
// the prefix that landed in its file; Abort then wakes the reader waiting
// for bytes that never came, with the abort's error, and takes the file
// away.
func TestAbortMidStageWakesReaders(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	data := bytes.Repeat([]byte{7}, 32<<10)
	src := srcFile(t, s, data)
	f, err := s.PutWriter("k", 2*int64(len(data))) // the source is half of what is declared
	if err != nil {
		t.Fatal(err)
	}
	if !f.Acquire() {
		t.Fatal("acquire on a live fill failed")
	}
	defer f.Release()
	blocked := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(make([]byte, 16), int64(len(data))) // past what the source has
		blocked <- err
	}()

	if n, err := f.CopyFrom(src, 0, 2*int64(len(data))); err != nil || n != int64(len(data)) {
		t.Fatalf("CopyFrom from a source half the declared size: %d bytes, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("read of the landed prefix: %d bytes, %v", n, err)
	}
	select {
	case err := <-blocked:
		t.Fatalf("the reader past the watermark returned before the abort: %v", err)
	default:
	}

	abortErr := errors.New("source ran short")
	f.Abort(abortErr)
	select {
	case err := <-blocked:
		if !errors.Is(err, abortErr) {
			t.Fatalf("the woken reader saw %v, want the abort's %v", err, abortErr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Abort left a reader waiting")
	}
	if _, err := f.ReadAt(got, 0); !errors.Is(err, abortErr) {
		t.Fatalf("read after the abort: %v", err)
	}
	if s.Resident("k") || s.Used() != 0 {
		t.Fatal("the aborted fill reached the index")
	}
	if ents, err := os.ReadDir(s.Dir()); err != nil || len(ents) != 0 {
		t.Fatalf("%d files left in the cache dir after the abort, %v", len(ents), err)
	}
}

// TestEvictingFillAllocatesNoPayload: at capacity, a 64 KiB fill takes its
// file from its victim and the kernel moves its bytes — nothing of the
// payload's size is allocated per fill. Every fill reads the one source,
// which the previous fill left at EOF: CopyFrom must read it at the
// offset it is given, not where its descriptor stands (a short fill
// otherwise).
func TestEvictingFillAllocatesNoPayload(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-mode sync.Pool drops Puts")
	}
	const size, resident, runs = 64 << 10, 8, 400
	s := newTestStore(t, resident*size, NewFIFO())
	src := srcFile(t, s, bytes.Repeat([]byte{1}, size))
	keys := make([]string, 2*resident+runs) // named up front: the measure is the store's, not Sprintf's
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	fill := func(i int) {
		f, err := s.PutWriter(keys[i], size)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.CopyFrom(src, 0, size); err != nil {
			f.Abort(err)
			t.Fatal(err)
		}
		if err := f.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the pool is per P: a fill that changed Ps would miss it
	for i := 0; i < 2*resident; i++ {               // to capacity, and the pool primed
		fill(i)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool mid-measure
	_, _, evicted := s.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fill(2*resident + i)
	}
	runtime.ReadMemStats(&after)
	if perFill := (after.TotalAlloc - before.TotalAlloc) / runs; perFill > 2<<10 {
		t.Fatalf("%d bytes allocated per evicting %d-byte fill, want at most 2 KiB", perFill, size)
	} else {
		t.Logf("%d bytes allocated per evicting fill", perFill)
	}
	if _, _, now := s.Stats(); now-evicted != runs {
		t.Fatalf("%d fills at capacity counted %d evictions", runs, now-evicted)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil || len(ents) != resident {
		t.Fatalf("%d files for %d resident entries, %v", len(ents), resident, err)
	}
}

// TestCopyFromFinalPartialChunkWakes is the watermark-ordering
// regression promised in CopyFrom's comment: a reader blocked in
// Fill.ReadAt on the final, partial chunk must be woken by that chunk's
// broadcast and observe the bytes. Were written advanced outside the
// broadcast's critical section the reader could consume the wakeup
// before the watermark covered its range and sleep forever — the
// timeout below is the failure mode. The source is a pipe — not a
// regular file, so ReadFrom's read/write loop carries it — and the
// committed bytes are checked verbatim.
func TestCopyFromFinalPartialChunkWakes(t *testing.T) {
	s := newTestStore(t, 8<<20, NewLRU())
	const size = FillChunk + 4096 // final chunk is partial
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + 7)
	}

	f, err := s.PutWriter("k", size)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Acquire() {
		t.Fatal("acquire on a live fill failed")
	}

	// Block on the tail range before a single byte has landed: only the
	// final partial chunk's broadcast can satisfy this read.
	tail := make([]byte, size-FillChunk)
	readDone := make(chan error, 1)
	go func() {
		_, rerr := f.ReadAt(tail, FillChunk)
		readDone <- rerr
	}()

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go func() {
		_, _ = pw.Write(data) // pipe capacity < size: feed concurrently
		pw.Close()
	}()

	n, err := f.CopyFrom(pr, 0, size)
	if err != nil || n != size {
		t.Fatalf("CopyFrom moved %d of %d bytes: %v", n, size, err)
	}

	select {
	case rerr := <-readDone:
		if rerr != nil {
			t.Fatalf("tail read: %v", rerr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader still blocked after the final partial chunk landed (lost wakeup)")
	}
	if !bytes.Equal(tail, data[FillChunk:]) {
		t.Fatal("tail bytes differ from the source")
	}

	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Release()

	// The committed entry must hold the bytes verbatim.
	got := make([]byte, size)
	if _, err := s.ReadAt("k", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("committed bytes differ from the pipe source")
	}
}

// TestCopyFromRegularFileSource pins the production ingest lane: a
// regular-file source at a non-zero offset lands through ReadFrom,
// byte-identically and with correct chunked watermarks.
func TestCopyFromRegularFileSource(t *testing.T) {
	s := newTestStore(t, 8<<20, NewLRU())
	const size = 2*FillChunk + 123
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	srcPath := s.Dir() + "/src"
	if err := os.WriteFile(srcPath, append([]byte("skip"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := os.Open(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	f, err := s.PutWriter("k", size)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.CopyFrom(src, 4, size) // offset past the "skip" prefix
	if err != nil || n != size {
		t.Fatalf("CopyFrom moved %d of %d bytes: %v", n, size, err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if _, err := s.ReadAt("k", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("committed bytes differ from the file source")
	}
	_ = os.Remove(srcPath) // keep the cache dir consistent for other assertions
}
