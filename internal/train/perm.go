package train

import "hvac/internal/sim"

// epochSeedStep is the golden-ratio increment separating the per-epoch
// shuffle streams derived from one run seed.
const epochSeedStep = 0x9e3779b9

// EpochSeed derives the RNG seed of epoch e's shuffle (a Perm) from the
// run seed, as Run and loader.EpochOrder do.
func EpochSeed(seed uint64, epoch int) uint64 {
	return seed + uint64(epoch)*epochSeedStep
}

// Perm is a random-access pseudorandom permutation of [0, n): a 4-round
// Feistel network over the smallest covering power-of-two domain with
// cycle-walking. It lets every rank enumerate the epoch's global shuffle
// without materialising an n-element array — at ImageNet21K scale a
// materialised permutation per epoch would cost ~100 MB per run.
type Perm struct {
	n    int
	bits uint // half-width of the Feistel domain
	mask uint64
	keys [4]uint64
}

// NewPerm derives a permutation of [0, n) from the rng stream.
func NewPerm(rng *sim.RNG, n int) *Perm {
	if n <= 0 {
		panic("train: permutation of empty domain")
	}
	p := &Perm{n: n}
	// Domain 2^(2*bits) >= n.
	p.bits = 1
	for 1<<(2*p.bits) < n {
		p.bits++
	}
	p.mask = 1<<p.bits - 1
	for i := range p.keys {
		p.keys[i] = rng.Uint64()
	}
	return p
}

// N returns the domain size.
func (p *Perm) N() int { return p.n }

func (p *Perm) round(x, key uint64) uint64 {
	x += key
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (p *Perm) encrypt(v uint64) uint64 {
	l := v >> p.bits
	r := v & p.mask
	for _, k := range p.keys {
		l, r = r, l^(p.round(r, k)&p.mask)
	}
	return l<<p.bits | r
}

// Index returns the image of i under the permutation. It panics if i is
// outside [0, n).
func (p *Perm) Index(i int) int {
	if i < 0 || i >= p.n {
		panic("train: permutation index out of range")
	}
	v := uint64(i)
	for {
		v = p.encrypt(v)
		if v < uint64(p.n) { // cycle-walk back into the domain
			return int(v)
		}
	}
}
