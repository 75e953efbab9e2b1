package cachestore

import (
	"os"
	"sync"
)

// handlePool keeps recently used cache files open so the segment-read hot
// path (Store.ReadAt) costs one pread instead of an open/pread/close
// triple per request. Entries are ref-counted: eviction (FIFO once the
// pool is full, or an explicit drop when the store evicts the file) marks
// an entry dead and the last reader closes it. Reading from a dropped
// handle is safe — the unlinked file's inode lives until the descriptor
// closes, and a cache key always names the same bytes.
type handlePool struct {
	mu   sync.Mutex
	max  int
	m    map[string]*pooledFile
	fifo []string
}

type pooledFile struct {
	f    *os.File
	refs int
	dead bool
}

func newHandlePool(max int) *handlePool {
	return &handlePool{max: max, m: make(map[string]*pooledFile)}
}

// acquire returns an open file for key, opening its cache file under dir
// on a pool miss. The caller must pass the returned *pooledFile to
// release exactly once. The open runs under the pool lock, which also
// serialises concurrent misses on the same key (one open, not two).
// Naming the file only on a miss (and taking dir, not a closure) keeps
// a lease on a pooled handle allocation-free.
func (hp *handlePool) acquire(key, dir string) (*pooledFile, error) {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	if pf, ok := hp.m[key]; ok {
		pf.refs++
		return pf, nil
	}
	f, err := os.Open(cachePath(dir, key))
	if err != nil {
		return nil, err
	}
	pf := &pooledFile{f: f, refs: 1}
	hp.m[key] = pf
	hp.fifo = append(hp.fifo, key)
	for len(hp.m) > hp.max && len(hp.fifo) > 0 {
		victim := hp.fifo[0]
		hp.fifo = hp.fifo[1:]
		hp.dropLocked(victim)
	}
	return pf, nil
}

// release undoes one acquire; the last release of a dead entry closes it.
func (hp *handlePool) release(pf *pooledFile) {
	hp.mu.Lock()
	pf.refs--
	dead := pf.dead && pf.refs == 0
	hp.mu.Unlock()
	if dead {
		_ = pf.f.Close() // nothing to report to: readers are gone
	}
}

// drop removes key from the pool (store eviction or purge); in-flight
// readers keep their descriptor until release.
func (hp *handlePool) drop(key string) {
	hp.mu.Lock()
	hp.dropLocked(key)
	hp.mu.Unlock()
}

func (hp *handlePool) dropLocked(key string) {
	pf, ok := hp.m[key]
	if !ok {
		return
	}
	delete(hp.m, key)
	if pf.refs == 0 {
		_ = pf.f.Close() // no readers left; close is best-effort
		return
	}
	pf.dead = true
}

// closeAll drops every pooled handle, for store teardown.
func (hp *handlePool) closeAll() {
	hp.mu.Lock()
	keys := make([]string, 0, len(hp.m))
	for k := range hp.m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		hp.dropLocked(k)
	}
	hp.fifo = nil
	hp.mu.Unlock()
}
