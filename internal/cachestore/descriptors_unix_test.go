//go:build unix

package cachestore

import (
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"
)

// TestOutOfDescriptorsIsAMiss: with the process at its descriptor limit a
// lease on an entry without a slot fails with the open's error — which
// callers treat as any other miss — a fill cannot start and leaves no
// temp file behind, and once descriptors are to be had again the same
// entry leases and reads as before.
func TestOutOfDescriptorsIsAMiss(t *testing.T) {
	limitBudget(t, 0) // no entry gets a slot: every lease must open
	s := newTestStore(t, 1<<20, NewLRU())
	if err := put(s, "k", 64, keyBytes(0)); err != nil {
		t.Fatal(err)
	}

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
	_, fillErr := s.PutWriter("k2", 64)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Fatalf("restoring RLIMIT_NOFILE: %v", err)
	}

	if !errors.Is(leaseErr, syscall.EMFILE) {
		t.Fatalf("lease at the descriptor limit: %v, want EMFILE", leaseErr)
	}
	if !errors.Is(fillErr, syscall.EMFILE) {
		t.Fatalf("fill at the descriptor limit: %v, want EMFILE", fillErr)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "fill-") {
			t.Fatalf("the refused fill left %s behind", e.Name())
		}
	}
	if got, err := readAll(s, "k"); err != nil || string(got) != keyBytes(0) {
		t.Fatalf("lease once descriptors are back: %q, %v", got, err)
	}
}
