package lockfix

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// earlyReturn leaks the lock on the conditional path.
func earlyReturn(c *counter, cond bool) int {
	c.mu.Lock()
	if cond {
		return c.n // want "return while lock c.mu is held"
	}
	c.mu.Unlock()
	return 0
}

// fallThrough never releases at all.
func fallThrough(c *counter) {
	c.mu.Lock() // want "lock c.mu is not released on the fall-through exit"
	c.n++
}

// deferInLoop holds every lock until function exit, serialising the
// whole slice after the first iteration.
func deferInLoop(cs []*counter) {
	for _, c := range cs {
		c.mu.Lock()
		defer c.mu.Unlock() // want "deferred unlock of c.mu inside a loop"
		c.n++
	}
}

// readLeak pairs RLock with a return path that skips RUnlock.
func readLeak(mu *sync.RWMutex, m map[string]int) int {
	mu.RLock()
	if v, ok := m["x"]; ok {
		mu.RUnlock()
		return v
	}
	return 0 // want "return while lock mu is held"
}
