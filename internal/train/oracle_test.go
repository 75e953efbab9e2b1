package train

import (
	"testing"

	"hvac/internal/sim"
)

// The oracle must reproduce the exact shuffle Run consumes: same seed
// derivation (EpochSeed), same permutation, per epoch.
func TestOracleMatchesRunShuffle(t *testing.T) {
	const seed, n = 42, 777
	for e := 0; e < 3; e++ {
		perm := NewPerm(sim.NewRNG(EpochSeed(seed, e)), n)
		o := NewOracle(seed, e, n)
		for k := 0; k < n; k++ {
			if o.At(k) != perm.Index(k) {
				t.Fatalf("epoch %d step %d: oracle %d, run shuffle %d", e, k, o.At(k), perm.Index(k))
			}
		}
	}
	// Distinct epochs must shuffle differently.
	a, b := NewOracle(seed, 0, n), NewOracle(seed, 1, n)
	same := 0
	for k := 0; k < n; k++ {
		if a.At(k) == b.At(k) {
			same++
		}
	}
	if same > n/20 {
		t.Fatalf("epochs 0 and 1 agree on %d/%d steps", same, n)
	}
}
