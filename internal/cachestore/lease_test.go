package cachestore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestLeaseReadRoundTrip covers the basic lease contract: Lease on a
// cached key yields the indexed size and a readable descriptor.
func TestLeaseReadRoundTrip(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	content := []byte("zero-copy lease payload")
	if err := put(s, "k", int64(len(content)), string(content)); err != nil {
		t.Fatal(err)
	}
	l, err := s.Lease("k")
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != int64(len(content)) {
		t.Fatalf("lease size %d, want %d", l.Size(), len(content))
	}
	if l.File() == nil {
		t.Fatal("lease exposes no descriptor")
	}
	got := make([]byte, len(content))
	if _, err := l.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("lease read differs from the filled content")
	}
	l.Release()
}

// TestDoubleReleasePanics: a lease, a fill reference and an entry slot's
// reference are each released exactly once. The single release works; the
// one after it panics instead of dropping a reference another holder
// reads through — the Lease struct may already be back out of its pool.
func TestDoubleReleasePanics(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	if err := put(s, "k", 3, "abc"); err != nil {
		t.Fatal(err)
	}
	l, err := s.Lease("k")
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	mustPanic(t, "a second Lease.Release", l.Release)
	if got, err := readAll(s, "k"); err != nil || string(got) != "abc" {
		t.Fatalf("after the refused release the entry reads %q, %v", got, err)
	}

	f, err := s.PutWriter("f", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CopyFrom(srcFile(t, s, []byte("def")), 0, 3); err != nil {
		t.Fatal(err)
	}
	if !f.Acquire() {
		t.Fatal("Acquire on a fill in progress failed")
	}
	f.Release()
	if err := f.Commit(); err != nil { // drops the creator's reference, the last
		t.Fatal(err)
	}
	mustPanic(t, "a Fill.Release past its last reference", f.Release)
	if got, err := readAll(s, "f"); err != nil || string(got) != "def" {
		t.Fatalf("the committed fill reads %q, %v", got, err)
	}

	mustPanic(t, "an unref of a slot nobody references", func() { s.unref(&entry{}) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestLeaseMiss(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	if _, err := s.Lease("never-cached"); err == nil {
		t.Fatal("lease on an uncached key must fail")
	}
}

// TestLeaseSurvivesEviction is the zero-copy safety property: eviction
// racing an active lease unlinks the file and marks the entry's slot
// dead, but the descriptor the lease pinned keeps reading the original
// bytes — no EBADF, no new key's bytes — until Release closes it.
func TestLeaseSurvivesEviction(t *testing.T) {
	s := newTestStore(t, 10, NewFIFO())
	if err := put(s, "a", 6, "aaaaaa"); err != nil {
		t.Fatal(err)
	}
	l, err := s.Lease("a")
	if err != nil {
		t.Fatal(err)
	}
	// A lease does not pin the index entry (the fd, not the key, is what
	// sendfile needs): inserting b evicts a and unlinks its file.
	if err := put(s, "b", 6, "bbbbbb"); err != nil {
		t.Fatalf("eviction blocked by an fd lease: %v", err)
	}
	if s.Resident("a") {
		t.Fatal("a still indexed after eviction")
	}
	got := make([]byte, 6)
	if _, err := l.ReadAt(got, 0); err != nil {
		t.Fatalf("read through lease after eviction: %v", err)
	}
	if string(got) != "aaaaaa" {
		t.Fatalf("lease read %q after eviction, want the original bytes", got)
	}
	l.Release() // last release of the dead slot closes the orphaned inode

	// A fresh lease on the evicted key must miss, not resurrect the fd.
	if _, err := s.Lease("a"); err == nil {
		t.Fatal("lease on an evicted key must fail")
	}
}

// TestLeaseSharesEntryDescriptor checks that concurrent leases on one key
// share the entry's descriptor and that it stays open until the final
// release even when the key dies in between.
func TestLeaseSharesEntryDescriptor(t *testing.T) {
	s := newTestStore(t, 10, NewFIFO())
	if err := put(s, "a", 6, "aaaaaa"); err != nil {
		t.Fatal(err)
	}
	l1, err := s.Lease("a")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := s.Lease("a")
	if err != nil {
		t.Fatal(err)
	}
	if l1.File() != l2.File() {
		t.Fatal("two leases on one key opened two descriptors")
	}
	if err := put(s, "b", 6, "bbbbbb"); err != nil { // evicts a
		t.Fatal(err)
	}
	l1.Release()
	got := make([]byte, 6)
	if _, err := l2.ReadAt(got, 0); err != nil {
		t.Fatalf("surviving lease read after sibling release: %v", err)
	}
	if string(got) != "aaaaaa" {
		t.Fatalf("surviving lease read %q", got)
	}
	l2.Release()
}

// TestLeaseEvictionChurnRace hammers Lease/ReadAt against continuous
// eviction pressure (run under -race by make check): every lease that
// is granted must read its key's exact bytes, never EBADF and never a
// successor key's content.
func TestLeaseEvictionChurnRace(t *testing.T) {
	const keys = 8
	s := newTestStore(t, 3*64, NewFIFO()) // room for 3 of 8 keys: constant churn
	content := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 64)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 300; i++ {
				k := (seed + i) % keys
				key := fmt.Sprintf("k%d", k)
				if err := put(s, key, 64, string(content(k))); err != nil {
					t.Errorf("put %s: %v", key, err)
				}
				l, err := s.Lease(key)
				if err != nil {
					continue // evicted between Put and Lease: a legitimate miss
				}
				if _, err := l.ReadAt(buf, 0); err != nil {
					t.Errorf("lease read for %s: %v", key, err)
				} else if !bytes.Equal(buf, content(k)) {
					t.Errorf("lease for %s read another key's bytes", key)
				}
				l.Release()
			}
		}(w)
	}
	wg.Wait()
}
