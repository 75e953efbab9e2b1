package cachestore

import (
	"container/list"

	"hvac/internal/sim"
)

// Random is the paper's eviction policy (§III-G): pick a victim uniformly
// at random. Deterministic under a fixed seed.
type Random struct {
	rng  *sim.RNG
	keys []string
	pos  map[string]int
}

// NewRandom returns a random policy seeded with seed (0 is a valid seed).
func NewRandom(seed uint64) *Random {
	return &Random{rng: sim.NewRNG(seed), pos: make(map[string]int)}
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// OnInsert implements Policy.
func (r *Random) OnInsert(key string) {
	r.pos[key] = len(r.keys)
	r.keys = append(r.keys, key)
}

// OnAccess implements Policy (random ignores recency).
func (r *Random) OnAccess(string) {}

// OnRemove implements Policy with O(1) swap-delete.
func (r *Random) OnRemove(key string) {
	i, ok := r.pos[key]
	if !ok {
		return
	}
	last := len(r.keys) - 1
	r.keys[i] = r.keys[last]
	r.pos[r.keys[i]] = i
	r.keys = r.keys[:last]
	delete(r.pos, key)
}

// Victim implements Policy.
func (r *Random) Victim() string {
	if len(r.keys) == 0 {
		return ""
	}
	return r.keys[r.rng.Intn(len(r.keys))]
}

// Keep never evicts: the cache admits files until it is full and then
// refuses the rest (ErrNoVictim), which the server serves from the PFS
// without a fill. Under the loader's access pattern — every file once per
// epoch, in a fresh permutation — a cache holding a fraction c of the
// dataset hits c of the reads from epoch 2 on, the offline optimum, and
// writes nothing after epoch 1 (DESIGN.md §6.3).
type Keep struct{}

// NewKeep returns the never-evict policy.
func NewKeep() Policy { return Keep{} }

func (Keep) Name() string    { return "keep" }
func (Keep) OnInsert(string) {}
func (Keep) OnAccess(string) {}
func (Keep) OnRemove(string) {}
func (Keep) Victim() string  { return "" }

// listPolicy is the shared shape of LRU and FIFO: a recency/insertion list
// evicting from the front.
type listPolicy struct {
	name      string
	moveOnHit bool
	ll        *list.List
	elems     map[string]*list.Element
}

func newListPolicy(name string, moveOnHit bool) *listPolicy {
	return &listPolicy{name: name, moveOnHit: moveOnHit, ll: list.New(), elems: make(map[string]*list.Element)}
}

// NewLRU returns least-recently-used eviction.
func NewLRU() Policy { return newListPolicy("lru", true) }

// NewFIFO returns insertion-order eviction.
func NewFIFO() Policy { return newListPolicy("fifo", false) }

func (l *listPolicy) Name() string { return l.name }

func (l *listPolicy) OnInsert(key string) {
	l.elems[key] = l.ll.PushBack(key)
}

func (l *listPolicy) OnAccess(key string) {
	if !l.moveOnHit {
		return
	}
	if e, ok := l.elems[key]; ok {
		l.ll.MoveToBack(e)
	}
}

func (l *listPolicy) OnRemove(key string) {
	if e, ok := l.elems[key]; ok {
		l.ll.Remove(e)
		delete(l.elems, key)
	}
}

func (l *listPolicy) Victim() string {
	if e := l.ll.Front(); e != nil {
		return e.Value.(string)
	}
	return ""
}
