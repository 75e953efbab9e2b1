//go:build unix

package cachestore

import (
	"errors"
	"os"
	"syscall"
	"testing"
)

// TestOutOfDescriptorsIsAMiss: with the process at its descriptor limit a
// lease on an entry without a slot fails with the open's error — which
// callers treat as any other miss — and a fill fails where it takes its
// file, leaving no index entry, no reservation, no temp file and the
// descriptor budget where it was; once descriptors are to be had again
// the same entry leases and reads as before.
func TestOutOfDescriptorsIsAMiss(t *testing.T) {
	limitBudget(t, 0) // no entry gets a slot: every lease must open
	s := newTestStore(t, 1<<20, NewLRU())
	if err := put(s, "k", 64, keyBytes(0)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	path := s.ix.entries["k"].path
	s.mu.Unlock()
	src, err := os.Open(path) // any 64-byte regular file, opened while opens still work
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	held := fdBudget.held.Load()

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Skip("no RLIMIT_NOFILE to lower:", err)
	}
	low := old
	low.Cur = 1 // below what is already open, so the next open is EMFILE
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skip("cannot lower RLIMIT_NOFILE:", err)
	}
	_, leaseErr := s.Lease("k")
	staged, putErr := s.PutWriter("k2", 64)
	var stagedErr, emptyErr error
	if putErr == nil {
		if _, stagedErr = staged.CopyFrom(src, 0, 64); stagedErr != nil {
			staged.Abort(stagedErr)
		} else {
			stagedErr = staged.Commit()
		}
	}
	empty, err := s.PutWriter("k3", 0) // no bytes to land: Commit is where it takes its file
	if err == nil {
		emptyErr = empty.Commit()
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Fatalf("restoring RLIMIT_NOFILE: %v", err)
	}

	if !errors.Is(leaseErr, syscall.EMFILE) {
		t.Fatalf("lease at the descriptor limit: %v, want EMFILE", leaseErr)
	}
	if putErr != nil || err != nil {
		t.Fatalf("PutWriter opens nothing, yet failed at the descriptor limit: %v, %v", putErr, err)
	}
	if !errors.Is(stagedErr, syscall.EMFILE) {
		t.Fatalf("CopyFrom at the descriptor limit: %v, want EMFILE", stagedErr)
	}
	if !errors.Is(emptyErr, syscall.EMFILE) {
		t.Fatalf("Commit of an empty fill at the descriptor limit: %v, want EMFILE", emptyErr)
	}
	if s.Resident("k2") || s.Resident("k3") || s.Len() != 1 {
		t.Fatalf("a refused fill reached the index: %d entries", s.Len())
	}
	s.mu.Lock()
	reserved := s.ix.reserved
	s.mu.Unlock()
	if reserved != 0 {
		t.Fatalf("the refused fills left %d bytes reserved", reserved)
	}
	if got := fdBudget.held.Load(); got != held {
		t.Fatalf("descriptor budget holds %d after the refused fills, %d before", got, held)
	}
	if ents, err := os.ReadDir(s.Dir()); err != nil || len(ents) != 1 {
		t.Fatalf("%d files beside the one resident entry's (the refused fills left some behind), %v", len(ents)-1, err)
	}
	if got, err := readAll(s, "k"); err != nil || string(got) != keyBytes(0) {
		t.Fatalf("lease once descriptors are back: %q, %v", got, err)
	}
}
