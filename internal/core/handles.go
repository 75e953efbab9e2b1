package core

import "sync"

// handleShards is the stripe count of the server's open-handle table. 16
// stripes of RWMutex keep concurrent readers of distinct handles (the
// common case: every client connection reads through its own fd) from
// serializing on one lock, which is what the paper's i×1 multi-instance
// deployments buy with separate processes.
const handleShards = 16

// handleTable is a sharded fd -> openHandle map. Lookups take only the
// owning shard's read lock, so the hot read path never contends with
// opens and closes on other shards.
type handleTable struct {
	shards [handleShards]handleShard
}

type handleShard struct {
	mu sync.RWMutex
	m  map[int64]*openHandle
}

func (t *handleTable) shard(fd int64) *handleShard {
	return &t.shards[uint64(fd)%handleShards]
}

func (t *handleTable) get(fd int64) (*openHandle, bool) {
	sh := t.shard(fd)
	sh.mu.RLock()
	h, ok := sh.m[fd]
	sh.mu.RUnlock()
	return h, ok
}

func (t *handleTable) put(fd int64, h *openHandle) {
	sh := t.shard(fd)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[int64]*openHandle)
	}
	sh.m[fd] = h
	sh.mu.Unlock()
}

// take removes and returns the handle for fd.
func (t *handleTable) take(fd int64) (*openHandle, bool) {
	sh := t.shard(fd)
	sh.mu.Lock()
	h, ok := sh.m[fd]
	if ok {
		delete(sh.m, fd)
	}
	sh.mu.Unlock()
	return h, ok
}
