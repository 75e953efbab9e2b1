package cachestore

import (
	"bytes"
	"os"
	"testing"
	"time"
)

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
	const size = fillChunk + 4096 // final chunk is partial
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
	tail := make([]byte, size-fillChunk)
	readDone := make(chan error, 1)
	go func() {
		_, rerr := f.ReadAt(tail, fillChunk)
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
	if !bytes.Equal(tail, data[fillChunk:]) {
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
	const size = 2*fillChunk + 123
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
