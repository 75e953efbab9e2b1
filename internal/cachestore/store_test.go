package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// newTestStore makes a store in a fresh directory. It maps the files it
// commits below MapLimit: the tests' small objects are mapped, their
// larger ones not.
func newTestStore(t *testing.T, capacity int64, p Policy) *Store {
	t.Helper()
	s, err := NewStore(filepath.Join(t.TempDir(), "cache"), capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	// Close the entries' descriptors with the test, so the process-wide
	// budget reads the same at every test's start; and every mapping must
	// be gone once nothing holds the store's entries any more.
	maps := mapBudget.held.Load()
	t.Cleanup(func() {
		_ = s.Purge()
		if got := mapBudget.held.Load(); got != maps && !t.Failed() {
			t.Errorf("%d mappings live after Purge and the last lease, %d before the store", got, maps)
		}
	})
	return s
}

// put inserts content under key the way the data-mover does: a source
// file (kept beside the store, in the test's temp dir) streamed through
// PutWriter/CopyFrom/Commit. size is the declared fill size, which a
// test may set apart from len(content). Safe to call from any goroutine.
func put(s *Store, key string, size int64, content string) error {
	src, err := os.CreateTemp(filepath.Dir(s.Dir()), "src-*")
	if err != nil {
		return err
	}
	defer src.Close()
	if _, err := src.WriteString(content); err != nil {
		return err
	}
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return err
	}
	f, err := s.PutWriter(key, size)
	if err != nil {
		return err
	}
	if _, err := f.CopyFrom(src, 0, size); err != nil {
		f.Abort(err)
		return err
	}
	return f.Commit()
}

// readAll reads key's whole cached file through a lease, the one way to
// read a cached file. Safe to call from any goroutine.
func readAll(s *Store, key string) ([]byte, error) {
	l, err := s.Lease(key)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	b := make([]byte, l.Size())
	if _, err = l.ReadAt(b, 0); err == nil && l.Mapped() != nil && !bytes.Equal(l.Mapped(), b) {
		err = fmt.Errorf("the mapping of %s differs from its file", key)
	}
	return b, err
}

func TestPutLeaseRoundTrip(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	content := []byte("hello hvac cache")
	if err := put(s, "/pfs/data/a.bin", int64(len(content)), string(content)); err != nil {
		t.Fatal(err)
	}
	if !s.Resident("/pfs/data/a.bin") {
		t.Fatal("not cached after Put")
	}
	got, err := readAll(s, "/pfs/data/a.bin")
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read back %q, %v", got, err)
	}
}

func TestPutDuplicateNoop(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	put(s, "k", 3, "abc")
	if err := put(s, "k", 3, "xyz"); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(s, "k"); string(got) != "abc" {
		t.Fatalf("duplicate Put overwrote content: %q", got)
	}
}

func TestShortSourceFails(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	err := put(s, "k", 100, "only a few bytes")
	if err == nil {
		t.Fatal("short copy should fail")
	}
	if s.Resident("k") {
		t.Fatal("failed Put left index entry")
	}
	if s.Used() != 0 {
		t.Fatalf("used = %d after failed put", s.Used())
	}
}

func TestEvictionRemovesFile(t *testing.T) {
	s := newTestStore(t, 10, NewFIFO())
	put(s, "a", 6, "aaaaaa")
	put(s, "b", 6, "bbbbbb") // evicts a
	if s.Resident("a") {
		t.Fatal("a should be evicted")
	}
	if _, err := readAll(s, "a"); err == nil {
		t.Fatal("lease of evicted key should fail")
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files on disk, want 1 (evicted file removed)", len(entries))
	}
}

// A fill the store cannot make room for is refused at PutWriter, before
// the caller reads a byte of its source: no file in the store's directory,
// nothing reserved, the resident untouched.
func TestPutWriterRefusalTakesNoFile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy func() Policy
		size   int64
		want   error
	}{
		{"too-large", func() Policy { return NewRandom(1) }, 11, ErrTooLarge},
		{"keep-full", NewKeep, 5, ErrNoVictim},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t, 10, tc.policy())
			if err := put(s, "a", 6, "aaaaaa"); err != nil {
				t.Fatal(err)
			}
			if f, err := s.PutWriter("b", tc.size); !errors.Is(err, tc.want) || f != nil {
				t.Fatalf("PutWriter = %v, %v; want %v", f, err, tc.want)
			}
			if ents, err := os.ReadDir(s.Dir()); err != nil || len(ents) != 1 {
				t.Fatalf("%d files in the store for one resident, %v", len(ents), err)
			}
			if s.ix.reserved != 0 || s.Used() != 6 || !s.Resident("a") || s.Resident("b") {
				t.Fatalf("reserved %d, used %d, keys %v; want 0, 6, [a]", s.ix.reserved, s.Used(), s.ix.Keys())
			}
		})
	}
}

// A fill holds its room from PutWriter until it finishes, so two fills in
// flight cannot both count the same free bytes: a second fill that does
// not fit beside the first's reservation is refused (nothing is resident
// to evict), the room comes back when the first aborts, and a committed
// fill's room is its entry's, which the next fill may evict.
func TestInFlightFillHoldsItsRoom(t *testing.T) {
	s := newTestStore(t, 10, NewFIFO())
	a, err := s.PutWriter("a", 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutWriter("b", 6); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("a second fill beside 6 of 10 bytes reserved = %v, want ErrTooLarge", err)
	}
	a.Abort(nil)
	if s.ix.reserved != 0 {
		t.Fatalf("%d bytes reserved after the abort", s.ix.reserved)
	}
	if err := put(s, "b", 6, "bbbbbb"); err != nil {
		t.Fatalf("fill after the abort: %v", err)
	}
	if err := put(s, "c", 6, "cccccc"); err != nil {
		t.Fatalf("fill beside a committed resident: %v", err)
	}
	if got, err := readAll(s, "c"); err != nil || string(got) != "cccccc" {
		t.Fatalf("c reads %q, %v", got, err)
	}
	if _, _, evictions := s.Stats(); evictions != 1 || s.Resident("b") || s.ix.reserved != 0 || s.Used() != 6 {
		t.Fatalf("%d evictions, reserved %d, used %d, keys %v; want 1, 0, 6, [c]", evictions, s.ix.reserved, s.Used(), s.ix.Keys())
	}
	if ents, err := os.ReadDir(s.Dir()); err != nil || len(ents) != 1 {
		t.Fatalf("%d files in the store for one resident, %v", len(ents), err)
	}
}

func TestConcurrentPutsAndReads(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("file-%d", (w*50+i)%20)
				content := strings.Repeat("x", 128)
				if err := put(s, key, 128, content); err != nil {
					t.Error(err)
					return
				}
				b, err := readAll(s, key)
				if err != nil {
					t.Error(err)
					return
				}
				if len(b) != 128 {
					t.Errorf("read %d bytes", len(b))
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 20 {
		t.Fatalf("len = %d, want 20", s.Len())
	}
}

func TestPurge(t *testing.T) {
	s := newTestStore(t, 1<<20, NewLRU())
	for i := 0; i < 5; i++ {
		put(s, fmt.Sprintf("k%d", i), 4, "data")
	}
	if err := s.Purge(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Used() != 0 {
		t.Fatalf("after purge: len=%d used=%d", s.Len(), s.Used())
	}
	entries, _ := os.ReadDir(s.Dir())
	if len(entries) != 0 {
		t.Fatalf("%d files remain after purge", len(entries))
	}
}

// TestNewStoreOnDirtyDir starts stores on a cache dir that is not empty:
// first on what a crashed run left behind — loose files under the names
// earlier versions used and a previous store's own directory, with the
// names this one creates — and then beside a second live store. No fill
// may fail, every read returns its own store's bytes (through a lease
// that opens the file by name, since no entry gets a descriptor slot),
// and neither store touches a file it did not create.
func TestNewStoreOnDirtyDir(t *testing.T) {
	limitBudget(t, 0)
	dir := filepath.Join(t.TempDir(), "cache")
	leftovers := []string{"fill-1", "fill-r1", "9f86d081884c7d659a2feaa0c55ad015", "c1", "c2", "store-old/c1", "store-old/c2"}
	for _, name := range leftovers {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stores [2]*Store
	for i := range stores {
		s, err := NewStore(dir, 1<<20, NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Purge() })
		stores[i] = s
		for k := 0; k < 4; k++ {
			if err := put(s, fmt.Sprintf("k%d", k), 64, keyBytes(10*i+k)); err != nil {
				t.Fatalf("store %d, fill of k%d on a dirty dir: %v", i, k, err)
			}
		}
	}
	if stores[0].Dir() == stores[1].Dir() {
		t.Fatalf("two stores share the directory %s", stores[0].Dir())
	}
	check := func(when string, live ...int) {
		t.Helper()
		for _, i := range live {
			for k := 0; k < 4; k++ {
				if got, err := readAll(stores[i], fmt.Sprintf("k%d", k)); err != nil || string(got) != keyBytes(10*i+k) {
					t.Fatalf("%s: store %d's k%d reads %q, %v", when, i, k, got, err)
				}
			}
		}
		for _, name := range leftovers {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != "stale" {
				t.Fatalf("%s: the leftover %s reads %q, %v", when, name, got, err)
			}
		}
	}
	check("both stores live", 0, 1)
	if err := stores[0].Purge(); err != nil {
		t.Fatal(err)
	}
	check("the first store purged", 1)
}

func TestKeyCollisionSafety(t *testing.T) {
	// Similar path names must map to distinct cache files.
	s := newTestStore(t, 1<<20, NewLRU())
	put(s, "/data/f1", 1, "1")
	put(s, "/data/f2", 1, "2")
	b1, err := readAll(s, "/data/f1")
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != "1" {
		t.Fatalf("f1 content = %q", b1)
	}
}
