package cachestore

import (
	"container/heap"
	"container/list"
	"sync"
)

// Clairvoyant is next-access-distance (Belady MIN) eviction driven by an
// epoch access plan. The planner installs the epoch's key list in access
// order (SetPlan / AppendPlan) and advances a consumption frontier as
// demand reads are observed (Advance); the policy then knows, for every
// planned resident key, exactly how far in the future its next read is.
//
// Victim preference, best first:
//
//  1. consumed plan keys — already read this epoch, next access unknown
//     until the next plan arrives, so their distance is effectively
//     infinite (oldest-consumed first);
//  2. keys the plan does not cover, via a segmented-LRU with a ghost
//     list: unplanned keys start on probation, move to protected on
//     re-access, and a key re-admitted while its ghost is still warm
//     enters protected directly — the classic scan-resistant fallback
//     for traffic the oracle cannot see;
//  3. unconsumed plan keys, farthest next access first — the Belady
//     choice proper, taken only when nothing dead or unplanned remains.
//
// Unlike the other policies, Clairvoyant is safe for concurrent use: the
// Index drives it under the store lock while the planner installs plans
// and advances the frontier from the RPC path. The internal mutex is
// always innermost and never held across a call out, so it composes with
// Store.mu without ordering hazards.
//
// Determinism: no map is ever iterated — residents live in ordered lists
// and a position heap — so a seeded run replays bit-for-bit, which the
// sim mirror requires.
type Clairvoyant struct {
	mu sync.Mutex

	// Plan state. pos maps key -> plan position (its next-access step);
	// positions below frontier are consumed this epoch.
	pos      map[string]int
	planLen  int
	frontier int

	// Resident keys by class. dead holds consumed plan keys FIFO;
	// prob/prot are the segmented-LRU lists for unplanned keys (front is
	// coldest); future is a lazy-deletion max-heap on plan position for
	// unconsumed plan keys, with byPos finding a resident key by its
	// position when the frontier sweeps past it.
	entries map[string]*centry
	dead    *list.List
	prob    *list.List
	prot    *list.List
	future  planHeap
	byPos   map[int]string

	// Ghost list of recently evicted unplanned keys (key only, no bytes).
	ghost    *list.List
	ghosts   map[string]*list.Element
	ghostCap int

	// lastVictim distinguishes an eviction (Victim then OnRemove) from an
	// explicit removal, so only true evictions feed the ghost list.
	lastVictim string
}

// centry classifies one resident key.
type centry struct {
	seg  uint8
	pos  int           // plan position, valid for segFuture and segDead
	elem *list.Element // list membership, valid for segDead/segProb/segProt
}

const (
	segFuture uint8 = iota // planned, unconsumed: in the position heap
	segDead                // planned, consumed: first to go
	segProb                // unplanned, probation
	segProt                // unplanned, protected
)

// planHeap is a max-heap of (position, key): the root is the resident
// plan key whose next access is farthest in the future. Entries are
// lazily deleted — Victim validates the root against entries/byPos.
type planHeap []planItem

type planItem struct {
	pos int
	key string
}

func (h planHeap) Len() int           { return len(h) }
func (h planHeap) Less(i, j int) bool { return h[i].pos > h[j].pos }
func (h planHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *planHeap) Push(x any)        { *h = append(*h, x.(planItem)) }
func (h *planHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// NewClairvoyant returns a Belady policy with no plan installed: until
// SetPlan arrives every key is unplanned and the policy degrades to the
// segmented-LRU ghost fallback.
func NewClairvoyant() *Clairvoyant {
	return &Clairvoyant{
		pos:     make(map[string]int),
		entries: make(map[string]*centry),
		dead:    list.New(),
		prob:    list.New(),
		prot:    list.New(),
		byPos:   make(map[int]string),
		ghost:   list.New(),
		ghosts:  make(map[string]*list.Element),
	}
}

// Name implements Policy.
func (c *Clairvoyant) Name() string { return "clairvoyant" }

// SetPlan installs a new plan generation: keys in access order, frontier
// reset to the epoch start. Resident keys are re-scored against the new
// plan; previously planned keys the new plan does not cover drop to the
// unplanned probation segment.
func (c *Clairvoyant) SetPlan(keys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetPlanLocked()
	c.appendPlanLocked(0, keys)
}

// AppendPlan extends the current plan with a chunk starting at plan
// position start — plan distribution arrives in bounded RPC chunks. A
// chunk at start 0 is a SetPlan.
func (c *Clairvoyant) AppendPlan(start int, keys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if start == 0 {
		c.resetPlanLocked()
	}
	c.appendPlanLocked(start, keys)
}

// resetPlanLocked drops the old plan and reclassifies its resident keys
// as unplanned. Only the ordered structures are walked (dead front to
// back, then the heap in position order) — never the entries map — so
// the resulting probation order is deterministic.
func (c *Clairvoyant) resetPlanLocked() {
	c.pos = make(map[string]int, c.planLen)
	c.planLen = 0
	c.frontier = 0
	for el := c.dead.Front(); el != nil; el = c.dead.Front() {
		k := el.Value.(string)
		c.dead.Remove(el)
		e := c.entries[k]
		e.seg = segProb
		e.elem = c.prob.PushBack(k)
	}
	for c.future.Len() > 0 {
		it := heap.Pop(&c.future).(planItem)
		e, ok := c.entries[it.key]
		if !ok || e.seg != segFuture || e.pos != it.pos {
			continue // stale heap entry
		}
		delete(c.byPos, e.pos)
		e.seg = segProb
		e.elem = c.prob.PushBack(it.key)
	}
	c.byPos = make(map[int]string)
}

func (c *Clairvoyant) appendPlanLocked(start int, keys []string) {
	for i, k := range keys {
		p := start + i
		c.pos[k] = p
		if p+1 > c.planLen {
			c.planLen = p + 1
		}
		// A resident key that just became planned moves from the
		// unplanned segments to the future heap.
		e, ok := c.entries[k]
		if !ok {
			continue
		}
		switch e.seg {
		case segProb:
			c.prob.Remove(e.elem)
		case segProt:
			c.prot.Remove(e.elem)
		default:
			continue // already planned under this generation
		}
		e.elem = nil
		c.scoreLocked(k, e, p)
	}
}

// scoreLocked files a resident planned key under its plan position.
func (c *Clairvoyant) scoreLocked(key string, e *centry, p int) {
	e.pos = p
	if p < c.frontier {
		e.seg = segDead
		e.elem = c.dead.PushBack(key)
		return
	}
	e.seg = segFuture
	c.byPos[p] = key
	heap.Push(&c.future, planItem{pos: p, key: key})
}

// Advance moves the consumption frontier to f: every plan position below
// f has been demanded. Resident keys the frontier sweeps past move to
// the dead list (their next access is next epoch at the earliest), which
// is what makes them the first eviction candidates. Advance is monotone;
// an older frontier is ignored.
func (c *Clairvoyant) Advance(f int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f > c.planLen {
		f = c.planLen
	}
	for p := c.frontier; p < f; p++ {
		k, ok := c.byPos[p]
		if !ok {
			continue
		}
		delete(c.byPos, p)
		e := c.entries[k]
		e.seg = segDead
		e.elem = c.dead.PushBack(k)
		// The heap entry goes stale and is lazily dropped by Victim.
	}
	if f > c.frontier {
		c.frontier = f
	}
}

// PlanLen reports the installed plan's length (ablation/test hook).
func (c *Clairvoyant) PlanLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planLen
}

// Frontier reports the current consumption frontier (ablation/test hook).
func (c *Clairvoyant) Frontier() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frontier
}

// OnInsert implements Policy.
func (c *Clairvoyant) OnInsert(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &centry{}
	c.entries[key] = e
	if p, ok := c.pos[key]; ok {
		c.scoreLocked(key, e, p)
		return
	}
	if gel, ok := c.ghosts[key]; ok {
		// Recently evicted and back already: skip probation.
		c.ghost.Remove(gel)
		delete(c.ghosts, key)
		e.seg = segProt
		e.elem = c.prot.PushBack(key)
		c.balanceLocked()
		return
	}
	e.seg = segProb
	e.elem = c.prob.PushBack(key)
}

// OnAccess implements Policy. Planned keys need no recency — their score
// is the plan position, and consumption is driven by Advance — so only
// the unplanned segments move.
func (c *Clairvoyant) OnAccess(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	switch e.seg {
	case segProb:
		c.prob.Remove(e.elem)
		e.seg = segProt
		e.elem = c.prot.PushBack(key)
		c.balanceLocked()
	case segProt:
		c.prot.MoveToBack(e.elem)
	}
}

// balanceLocked caps the protected segment at roughly two thirds of the
// unplanned residents, demoting its coldest entries back to probation —
// the standard SLRU shape, deterministic and allocation-free.
func (c *Clairvoyant) balanceLocked() {
	lim := (c.prot.Len()+c.prob.Len())*2/3 + 1
	for c.prot.Len() > lim {
		el := c.prot.Front()
		k := el.Value.(string)
		c.prot.Remove(el)
		e := c.entries[k]
		e.seg = segProb
		e.elem = c.prob.PushBack(k)
	}
}

// OnRemove implements Policy.
func (c *Clairvoyant) OnRemove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	delete(c.entries, key)
	switch e.seg {
	case segFuture:
		delete(c.byPos, e.pos)
		// Heap entry goes stale; Victim lazily drops it.
	case segDead:
		c.dead.Remove(e.elem)
	case segProb, segProt:
		if e.seg == segProb {
			c.prob.Remove(e.elem)
		} else {
			c.prot.Remove(e.elem)
		}
		if key == c.lastVictim {
			c.rememberGhostLocked(key)
		}
	}
	if key == c.lastVictim {
		c.lastVictim = ""
	}
}

// rememberGhostLocked records an evicted unplanned key. The ghost list
// scales with the resident set so its memory stays bounded.
func (c *Clairvoyant) rememberGhostLocked(key string) {
	c.ghosts[key] = c.ghost.PushBack(key)
	cap := c.ghostCap
	if cap <= 0 {
		cap = 2 * (len(c.entries) + 1)
		if cap < 64 {
			cap = 64
		}
	}
	for c.ghost.Len() > cap {
		el := c.ghost.Front()
		delete(c.ghosts, el.Value.(string))
		c.ghost.Remove(el)
	}
}

// Victim implements Policy: dead plan keys first (oldest consumed),
// then the unplanned segmented-LRU (probation before protected), then
// the unconsumed plan key with the farthest next access.
func (c *Clairvoyant) Victim() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range []*list.List{c.dead, c.prob, c.prot} {
		if el := l.Front(); el != nil {
			c.lastVictim = el.Value.(string)
			return c.lastVictim
		}
	}
	// Lazy max-heap: stale roots (consumed, removed, re-scored) are
	// dropped; the live root stays in the heap until OnRemove retires it,
	// so the heap stays consistent if the caller does not evict it.
	for c.future.Len() > 0 {
		it := c.future[0]
		if e, ok := c.entries[it.key]; ok && e.seg == segFuture && e.pos == it.pos {
			c.lastVictim = it.key
			return it.key
		}
		heap.Pop(&c.future)
	}
	return ""
}
