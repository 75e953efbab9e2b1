package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hvac/internal/testutil"
)

// The cachestore model run (ROADMAP item 5): a seeded op generator drives
// PutWriter/CopyFrom/Commit/Abort/Lease/ReadAt/Release/Purge against a
// store at half the key space's capacity, and a reference model — a map,
// a capacity, the reservations and the live leases — is checked against
// the store after every step. One goroutine stepping several actors makes
// the interleaving of multi-step fills deterministic, and there the model
// predicts the store exactly (FIFO eviction: which keys are resident, what
// is reserved, how many evictions). Several goroutines make it concurrent,
// and there the model holds what must be true in any order.

// modelSizes puts one object below, one at and one above fillChunk, so
// fills stage and stream, and recycle files larger and smaller than they
// need.
var modelSizes = [...]int64{40 << 10, fillChunk, fillChunk + 4<<10}

const modelKeys = 12

type model struct {
	mu       sync.Mutex
	exact    bool
	capacity int64
	data     [modelKeys][]byte // every key's bytes, as its source file holds them

	// Exact mode: the index as FIFO eviction must leave it.
	fifo      []int // resident keys, oldest first
	used      int64
	reserved  int64
	evictions int64

	// Any mode: upper bounds on what fills in flight may hold.
	fills      int   // between PutWriter and the return of Commit/Abort
	reservable int64 // bytes of those fills
	landed     int   // those holding a file: a victim's, or their own since CopyFrom

	mappedLeases int // leases granted with a mapping: the run reached that plane
}

func (m *model) resident(k int) bool {
	for _, r := range m.fifo {
		if r == k {
			return true
		}
	}
	return false
}

func (m *model) size(k int) int64 { return int64(len(m.data[k])) }

// evictFor is Index.evictFor on the model.
func (m *model) evictFor(need int64) {
	for m.used+need > m.capacity {
		m.used -= m.size(m.fifo[0])
		m.fifo = m.fifo[1:]
		m.evictions++
	}
}

// admitted is PutWriter: room made and reserved before the fill reads a byte.
func (m *model) admitted(k int) {
	m.evictFor(m.reserved + m.size(k))
	m.reserved += m.size(k)
}

// finished is the end of a fill: the reservation goes back, and a commit
// of a key no other fill won inserts it.
func (m *model) finished(k int, committed bool) {
	m.reserved -= m.size(k)
	if committed && !m.resident(k) {
		m.evictFor(m.size(k))
		m.fifo = append(m.fifo, k)
		m.used += m.size(k)
	}
}

// check compares the store with the model. It holds m.mu across its look
// at the store: actors raise the model's bounds before the store call
// that uses them and lower them after the one that gives them back, so at
// any instant the store is within them.
func (m *model) check(t *testing.T, s *Store) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	s.mu.Lock()
	used, reserved, evictions := s.ix.used, s.ix.reserved, s.ix.evictions
	resident := make(map[string]int64, len(s.ix.entries))
	for k, e := range s.ix.entries {
		resident[k] = e.size
		if e.dead || e.refs < 0 {
			t.Errorf("resident %s: dead=%v refs=%d", k, e.dead, e.refs)
		}
		if e.m != nil && (e.f == nil || int64(len(e.m)) != e.size) {
			t.Errorf("resident %s: a %d-byte mapping for a %d-byte file, slot %v", k, len(e.m), e.size, e.f != nil)
		}
	}
	s.mu.Unlock()

	var sum int64
	for k, size := range resident {
		sum += size
		var i int
		if _, err := fmt.Sscanf(k, "key%d", &i); err != nil || size != m.size(i) {
			t.Errorf("resident %s has size %d", k, size)
		}
	}
	if sum != used || reserved < 0 || used+reserved > m.capacity {
		t.Errorf("used %d (entries sum to %d) + reserved %d against capacity %d", used, sum, reserved, m.capacity)
	}
	if reserved > m.reservable {
		t.Errorf("%d bytes reserved, fills in flight account for %d", reserved, m.reservable)
	}
	if !m.exact {
		return
	}
	// Nothing runs beside this check, so every eviction's unlink is done:
	// the directory holds the residents' files and the landed fills' and
	// nothing else — whatever the names.
	if ents, err := os.ReadDir(s.Dir()); err != nil || len(ents) != len(resident)+m.landed {
		t.Errorf("%d files on disk for %d residents and %d landed fills, %v", len(ents), len(resident), m.landed, err)
	}
	if used != m.used || reserved != m.reserved || evictions != m.evictions || len(resident) != len(m.fifo) {
		t.Errorf("store: used %d reserved %d evictions %d, %d resident; model: %d, %d, %d, %v",
			used, reserved, evictions, len(resident), m.used, m.reserved, m.evictions, m.fifo)
	}
	for _, k := range m.fifo {
		if _, ok := resident[modelKey(k)]; !ok {
			t.Errorf("model has key%d resident, the store does not", k)
		}
	}
}

func modelKey(k int) string { return fmt.Sprintf("key%d", k) }

// actor is one client of the store: at most one fill in progress, a few
// leases held across steps.
type actor struct {
	rng    *rand.Rand
	srcDir string

	fill   *Fill
	src    *os.File
	key    int
	copied bool
	landed bool // the fill holds a file

	held []heldLease
}

type heldLease struct {
	l   *Lease
	key int
}

// readCheck reads a window of key k through r and compares it with the source.
func (a *actor) readCheck(t *testing.T, m *model, what string, k int, r func(p []byte, off int64) (int, error)) {
	t.Helper()
	off := a.rng.Int63n(m.size(k))
	buf := make([]byte, min(8<<10, m.size(k)-off))
	n, err := r(buf, off)
	if n != len(buf) || !bytes.Equal(buf, m.data[k][off:off+int64(n)]) {
		t.Errorf("%s of key%d at %d: %d of %d bytes, %v; equal to the source: %v",
			what, k, off, n, len(buf), err, bytes.Equal(buf[:n], m.data[k][off:off+int64(n)]))
	}
}

// missCheck judges a failed read of key k: it must be a miss — evicted,
// or, for an entry without a slot, evicted between the index and the
// open — and in exact mode one the model expected.
func (a *actor) missCheck(t *testing.T, m *model, k int, err error, resident bool) {
	t.Helper()
	if m.exact && (err == nil) != resident {
		t.Errorf("read of key%d: %v; the model has it resident: %v", k, err, resident)
	}
	if err != nil && !errors.Is(err, ErrNotCached) && !errors.Is(err, os.ErrNotExist) {
		t.Errorf("read of key%d: %v, want a miss", k, err)
	}
}

func (a *actor) endFill(m *model, committed bool) {
	_ = a.src.Close() // read-only
	m.mu.Lock()
	m.fills--
	m.reservable -= m.size(a.key)
	if a.landed {
		m.landed--
	}
	if m.exact {
		m.finished(a.key, committed)
	}
	m.mu.Unlock()
	a.fill, a.src, a.copied, a.landed = nil, nil, false, false
}

// step runs one operation, then re-reads every lease the actor holds: a
// lease keeps reading its key's bytes until released, however often the
// key is evicted, its file recycled, or the store purged in between.
func (a *actor) step(t *testing.T, s *Store, m *model) {
	k := a.rng.Intn(modelKeys)
	m.mu.Lock()
	resident := m.resident(k) // meaningful in exact mode, where nothing runs beside this step
	m.mu.Unlock()
	switch op := a.rng.Intn(16); {
	case op < 7 && a.fill == nil: // start a fill
		src, err := os.Open(filepath.Join(a.srcDir, modelKey(k)))
		if err != nil {
			t.Error(err)
			return
		}
		m.mu.Lock()
		m.fills++
		m.reservable += m.size(k)
		m.landed++ // until PutWriter says whether it recycled a victim's file
		if m.exact {
			m.admitted(k)
		}
		m.mu.Unlock()
		if a.fill, err = s.PutWriter(modelKey(k), m.size(k)); err != nil {
			t.Fatal(err) // never refused: the fills in flight fit the capacity, and it opens nothing
		}
		a.src, a.key, a.landed = src, k, a.fill.file != nil
		if !a.landed {
			m.mu.Lock()
			m.landed--
			m.mu.Unlock()
		}
	case op < 7 && !a.copied && a.rng.Intn(8) > 0: // move its bytes
		if !a.landed {
			m.mu.Lock()
			m.landed++
			m.mu.Unlock()
		}
		a.copied, a.landed = true, true
		if n, err := a.fill.CopyFrom(a.src, 0, m.size(a.key)); err != nil || n != m.size(a.key) {
			t.Errorf("CopyFrom key%d: %d bytes, %v", a.key, n, err)
		}
		// The fill serves its bytes from here to its last Release.
		if !a.fill.Acquire() {
			t.Errorf("the live fill of key%d refused a reader", a.key)
			break
		}
		a.readCheck(t, m, "fill read", a.key, a.fill.ReadAt)
		a.fill.Release()
	case op < 7: // finish it: one fill in eight is abandoned before its copy, one in eight after
		committed := a.copied && a.rng.Intn(8) > 0
		if committed {
			if err := a.fill.Commit(); err != nil {
				t.Errorf("Commit key%d: %v", a.key, err)
			}
		} else {
			a.fill.Abort(nil)
		}
		a.endFill(m, committed)
	case op < 11: // lease a key, and sometimes keep the lease
		l, err := s.Lease(modelKey(k))
		a.missCheck(t, m, k, err, resident)
		if err != nil {
			break
		}
		if l.Mapped() != nil {
			m.mu.Lock()
			m.mappedLeases++
			m.mu.Unlock()
		}
		f, sent := l.f, a.rng.Intn(4) == 0
		if sent {
			f = l.File() // as the server does for sendfile, which holds the lease until the peer asks again
		}
		if fi, err := f.Stat(); err != nil || fi.Size() != m.size(k) || l.Size() != m.size(k) {
			t.Errorf("lease of key%d (%d bytes): indexed at %d, file %v, %v", k, m.size(k), l.Size(), fi, err)
		} // a recycled file is cut or grown to its new key's size
		a.readCheck(t, m, "lease read", k, l.ReadAt)
		if sent || len(a.held) < 3 && a.rng.Intn(2) == 0 {
			a.held = append(a.held, heldLease{l, k})
		} else {
			l.Release()
		}
	case op < 13: // let the oldest held lease go
		if len(a.held) > 0 {
			a.held[0].l.Release()
			a.held = a.held[1:]
		}
	case op < 15: // a one-shot read
		a.readCheck(t, m, "store read", k, func(p []byte, off int64) (int, error) {
			n, err := s.ReadAt(modelKey(k), p, off)
			a.missCheck(t, m, k, err, resident)
			if err != nil {
				n = copy(p, m.data[k][off:]) // a miss: nothing to compare
			}
			return n, err
		})
	case a.rng.Intn(12) == 0:
		if err := s.Purge(); err != nil {
			t.Errorf("Purge: %v", err)
		}
		if m.exact {
			m.mu.Lock()
			m.fifo, m.used = nil, 0
			m.mu.Unlock()
		}
	}
	for _, h := range a.held {
		a.readCheck(t, m, "held lease read", h.key, h.l.ReadAt)
		// A mapping is never under a fill's writes: its file is handed to
		// one only once no lease is left on it.
		if mp := h.l.Mapped(); mp != nil && !bytes.Equal(mp, m.data[h.key]) {
			t.Errorf("held lease of key%d: its mapping differs from the source", h.key)
		}
	}
}

// runModel drives goroutines × actors actors for steps steps each against
// one store, checks the model after every step, and then that everything
// the run took — references, reservations, descriptors, files — is back.
func runModel(t *testing.T, seed int64, goroutines, actors, steps int, exact bool) {
	testutil.CheckFDs(t) // registered first, so it looks after the store's own cleanup
	held, maps := fdBudget.held.Load(), mapBudget.held.Load()
	m := &model{exact: exact}
	srcDir := t.TempDir()
	var total int64
	for k := range m.data {
		m.data[k] = make([]byte, modelSizes[k%len(modelSizes)])
		rand.New(rand.NewSource(seed<<8 + int64(k))).Read(m.data[k])
		if err := os.WriteFile(filepath.Join(srcDir, modelKey(k)), m.data[k], 0o644); err != nil {
			t.Fatal(err)
		}
		total += m.size(k)
	}
	m.capacity = total / 2
	var policy Policy = NewRandom(uint64(seed))
	if exact {
		policy = NewFIFO()
	}
	s := newTestStore(t, m.capacity, policy)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(g)))
			as := make([]*actor, actors)
			for i := range as {
				as[i] = &actor{rng: rng, srcDir: srcDir}
			}
			for i := 0; i < steps && !t.Failed(); i++ {
				as[rng.Intn(actors)].step(t, s, m)
				m.check(t, s)
			}
			for _, a := range as {
				if a.fill != nil {
					a.fill.Abort(nil)
					a.endFill(m, false)
				}
				for _, h := range a.held {
					h.l.Release()
				}
			}
		}(g)
	}
	wg.Wait()

	m.check(t, s)
	if m.fills != 0 || m.reservable != 0 {
		t.Fatalf("the run itself is unbalanced: %d fills, %d reservable bytes", m.fills, m.reservable)
	}
	if m.mappedLeases == 0 {
		t.Error("no lease was granted a mapping: the run never reached the mapped plane")
	}
	slots(t, s) // every resident slot's references are back to zero
	s.mu.Lock()
	reserved := s.ix.reserved
	s.mu.Unlock()
	if reserved != 0 {
		t.Errorf("%d bytes still reserved with no fill in flight", reserved)
	}
	if err := s.Purge(); err != nil {
		t.Error(err)
	}
	if ents, err := os.ReadDir(s.Dir()); err != nil || len(ents) != 0 || s.Len() != 0 || s.Used() != 0 {
		t.Errorf("after Purge: %d files, %d entries, %d bytes, %v", len(ents), s.Len(), s.Used(), err)
	}
	if got := fdBudget.held.Load(); got != held {
		t.Errorf("descriptor budget holds %d after Purge, %d before the run", got, held)
	}
	if got := mapBudget.held.Load(); got != maps {
		t.Errorf("%d mappings live after Purge, %d before the run", got, maps)
	}
}

func TestStoreModel(t *testing.T) {
	for _, tc := range []struct {
		name               string
		goroutines, actors int
		steps              int
		exact              bool
		budget             int64 // descriptor slots to leave; -1: ample
	}{
		{"exact", 1, 3, 600, true, -1},
		// Entries over the descriptor budget have no slot to hand over:
		// their eviction is an unlink and the fill creates its file, and
		// the index must not be able to tell.
		{"exact without slots", 1, 3, 600, true, 2},
		// Four fills in flight at most: half the key space holds the four
		// largest objects, so PutWriter refuses no reservation and residents
		// plus reservations stay within the capacity.
		{"concurrent", 4, 1, 400, false, -1},
		{"concurrent without slots", 4, 1, 400, false, 2},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				if tc.budget >= 0 {
					limitBudget(t, tc.budget)
				}
				runModel(t, seed, tc.goroutines, tc.actors, tc.steps, tc.exact)
			})
		}
	}
}
