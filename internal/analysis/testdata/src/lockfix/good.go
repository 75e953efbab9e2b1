package lockfix

import "sync"

type gauge struct {
	mu sync.Mutex
	n  int
}

// incr uses the canonical lock/defer-unlock pair.
func (g *gauge) incr() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}

// tryGet unlocks on every return path explicitly.
func (g *gauge) tryGet(ok bool) (int, bool) {
	g.mu.Lock()
	if !ok {
		g.mu.Unlock()
		return 0, false
	}
	n := g.n
	g.mu.Unlock()
	return n, true
}

// perItem locks and unlocks inside the loop body: no deferred unlock.
func perItem(gs []*gauge) int {
	total := 0
	for _, g := range gs {
		g.mu.Lock()
		total += g.n
		g.mu.Unlock()
	}
	return total
}

// byPointer locks through a pointer parameter and defers the unlock.
func byPointer(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
}
