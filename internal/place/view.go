package place

import "sync"

// View is a versioned membership view over a placement Policy: the fixed
// universe of n servers the job was launched with, minus the members that
// have left (crashed, been drained) and not yet rejoined. Placement is
// computed by filtering the base policy's full preference order down to
// the active members, so a view change moves only the keys that were
// homed on the departed server (for Rendezvous — the minimal
// key range), and an unchanged view places exactly like the bare policy.
//
// The view is safe for concurrent use. Version() increments on every
// effective Join/Leave, so readers can cheaply detect membership changes
// and invalidate anything derived from an older view.
type View struct {
	mu      sync.RWMutex
	base    Policy
	n       int
	version uint64
	down    map[int]bool
}

// NewView wraps base over a universe of n servers, all initially active.
func NewView(base Policy, n int) *View {
	if n <= 0 {
		panic("place: view over no servers")
	}
	return &View{base: base, n: n, down: make(map[int]bool)}
}

// Base returns the wrapped policy.
func (v *View) Base() Policy { return v.base }

// Size returns the universe size n (active and departed members).
func (v *View) Size() int { return v.n }

// Version returns the membership version; it starts at 0 and increments
// on every Join/Leave that changes the active set.
func (v *View) Version() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.version
}

// NumActive returns the number of active members.
func (v *View) NumActive() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.n - len(v.down)
}

// Alive reports whether member i is active.
func (v *View) Alive(i int) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return i >= 0 && i < v.n && !v.down[i]
}

// Leave removes member i from the active set. It returns true if the
// view changed (i was active), false if i was already down or out of
// range. Removing the last active member is refused.
func (v *View) Leave(i int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i < 0 || i >= v.n || v.down[i] {
		return false
	}
	if len(v.down) == v.n-1 {
		return false
	}
	v.down[i] = true
	v.version++
	return true
}

// Join returns member i to the active set. It returns true if the view
// changed (i was down), false otherwise.
func (v *View) Join(i int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if i < 0 || i >= v.n || !v.down[i] {
		return false
	}
	delete(v.down, i)
	v.version++
	return true
}

// Place returns the home server for path among the active members: the
// first active server in the base policy's preference order.
func (v *View) Place(path string) int {
	return v.Replicas(path, 1)[0]
}

// Replicas returns up to r distinct active servers for path, primary
// first, by filtering the base policy's full preference order
// base.Replicas(path, n, n) to the active members. With every member
// active this is exactly base.Replicas(path, n, r) (the preference
// order's prefix), so an unchanged view moves zero keys; with one member
// down, only keys that ranked the departed server inside their first r
// choices see any change.
func (v *View) Replicas(path string, r int) []int {
	if r < 1 {
		r = 1
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.down) == 0 {
		// Fast path: full membership delegates straight to the policy.
		return v.base.Replicas(path, v.n, r)
	}
	active := v.n - len(v.down)
	if r > active {
		r = active
	}
	order := v.base.Replicas(path, v.n, v.n)
	out := make([]int, 0, r)
	for _, s := range order {
		if v.down[s] {
			continue
		}
		out = append(out, s)
		if len(out) == r {
			break
		}
	}
	return out
}
