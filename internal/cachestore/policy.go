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

// Clock is the second-chance approximation of LRU.
type Clock struct {
	keys []string
	ref  map[string]bool
	pos  map[string]int
	hand int
}

// NewClock returns a CLOCK policy.
func NewClock() *Clock {
	return &Clock{ref: make(map[string]bool), pos: make(map[string]int)}
}

// Name implements Policy.
func (c *Clock) Name() string { return "clock" }

// OnInsert implements Policy.
func (c *Clock) OnInsert(key string) {
	c.pos[key] = len(c.keys)
	c.keys = append(c.keys, key)
	c.ref[key] = false
}

// OnAccess implements Policy: set the reference bit.
func (c *Clock) OnAccess(key string) {
	if _, ok := c.pos[key]; ok {
		c.ref[key] = true
	}
}

// OnRemove implements Policy.
func (c *Clock) OnRemove(key string) {
	i, ok := c.pos[key]
	if !ok {
		return
	}
	last := len(c.keys) - 1
	c.keys[i] = c.keys[last]
	c.pos[c.keys[i]] = i
	c.keys = c.keys[:last]
	delete(c.pos, key)
	delete(c.ref, key)
	if c.hand > last {
		c.hand = 0
	}
}

// Victim implements Policy: sweep clearing reference bits; two full passes
// guarantee an unreferenced entry is found if any entry exists.
func (c *Clock) Victim() string {
	n := len(c.keys)
	if n == 0 {
		return ""
	}
	for i := 0; i < 2*n; i++ {
		if c.hand >= len(c.keys) {
			c.hand = 0
		}
		k := c.keys[c.hand]
		c.hand++
		if c.ref[k] {
			c.ref[k] = false
			continue
		}
		return k
	}
	return ""
}
