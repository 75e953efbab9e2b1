// Package place implements HVAC's hash-based I/O redirection (§III-E):
// the cache location of a file is computed algorithmically from the file
// path and the job's node allocation, so no metadata store, in-memory
// database or broadcast lookup is ever needed, and load spreads evenly
// across the allocation's HVAC servers.
//
// The paper uses a single hash of (path, allocation) onto the server list;
// that is ModHash here, the default. Rendezvous (highest-random-weight)
// is the one consistent hash, kept for the placement ablation and the
// minimal-movement property of View; both policies can return R distinct
// replicas to support the paper's future-work replication/failover design
// (§III-H).
package place

import (
	"hash/fnv"
	"sort"
)

// Policy deterministically maps a file path onto one of n servers.
// Implementations are stateless values: Place and Replicas compute from
// their arguments alone and write nothing, so one Policy may be shared by
// any number of goroutines — View calls it under its read lock.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Place returns the home server index in [0, n) for path.
	Place(path string, n int) int
	// Replicas returns r distinct server indices for path, primary first.
	// r is clamped to n.
	Replicas(path string, n, r int) []int
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	//hvaclint:ignore errdrop hash.Hash.Write is documented never to return an error
	h.Write([]byte(s))
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer, used to combine a path hash with a
// server index with full avalanche — plain FNV over a concatenated suffix
// is too weakly mixed for argmax-style selection (rendezvous) to balance.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ModHash is the paper's placement: FNV-1a over the path, modulo the
// allocation size. An optional AllocationSalt mixes in the job's node
// allocation so distinct jobs spread the same dataset differently.
type ModHash struct {
	AllocationSalt uint64
}

// Name implements Policy.
func (ModHash) Name() string { return "modhash" }

// Place implements Policy.
func (m ModHash) Place(path string, n int) int {
	if n <= 0 {
		panic("place: no servers")
	}
	return int(mix64(hash64(path)^m.AllocationSalt) % uint64(n))
}

// Replicas implements Policy: the primary plus consecutive probe slots.
func (m ModHash) Replicas(path string, n, r int) []int {
	if r > n {
		r = n
	}
	if r < 1 {
		r = 1
	}
	first := m.Place(path, n)
	out := make([]int, 0, r)
	for i := 0; i < r; i++ {
		out = append(out, (first+i)%n)
	}
	return out
}

// Rendezvous is highest-random-weight hashing: minimal disruption when the
// allocation grows or shrinks, at O(n) per placement.
type Rendezvous struct {
	AllocationSalt uint64
}

// Name implements Policy.
func (Rendezvous) Name() string { return "rendezvous" }

func (rv Rendezvous) weight(path string, server int) uint64 {
	return mix64(hash64(path) ^ rv.AllocationSalt ^ (uint64(server)+1)*0x9e3779b97f4a7c15)
}

// Place implements Policy.
func (rv Rendezvous) Place(path string, n int) int {
	if n <= 0 {
		panic("place: no servers")
	}
	best, bestW := 0, uint64(0)
	for s := 0; s < n; s++ {
		if w := rv.weight(path, s); w >= bestW {
			best, bestW = s, w
		}
	}
	return best
}

// Replicas implements Policy: the r highest-weight servers.
func (rv Rendezvous) Replicas(path string, n, r int) []int {
	if r > n {
		r = n
	}
	if r < 1 {
		r = 1
	}
	type sw struct {
		s int
		w uint64
	}
	all := make([]sw, n)
	for s := 0; s < n; s++ {
		all[s] = sw{s, rv.weight(path, s)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].s < all[j].s
	})
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = all[i].s
	}
	return out
}
