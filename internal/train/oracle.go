package train

import "hvac/internal/sim"

// epochSeedStep is the golden-ratio increment separating the per-epoch
// shuffle streams derived from one run seed.
const epochSeedStep = 0x9e3779b9

// EpochSeed derives the RNG seed of epoch e from the run seed — the
// exact derivation Run uses for its per-epoch shuffles, exported so
// out-of-band planners (the clairvoyant prefetcher) reconstruct the
// identical permutation.
func EpochSeed(seed uint64, epoch int) uint64 {
	return seed + uint64(epoch)*epochSeedStep
}

// Oracle is the clairvoyant view of one epoch's access order. Because
// the shuffle is a seeded Feistel permutation (NoPFS makes the same
// observation: the access sequence of every epoch is known the moment
// the seed is fixed), the dataset index read at any global step is
// computable in O(1) without materialising the epoch.
type Oracle struct {
	perm *Perm
}

// NewOracle builds the access oracle for one epoch over n dataset files.
func NewOracle(seed uint64, epoch, n int) *Oracle {
	return &Oracle{perm: NewPerm(sim.NewRNG(EpochSeed(seed, epoch)), n)}
}

// N returns the dataset size.
func (o *Oracle) N() int { return o.perm.N() }

// At returns the dataset index read at global step k.
func (o *Oracle) At(step int) int { return o.perm.Index(step) }
