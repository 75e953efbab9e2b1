package place

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func policies() []Policy {
	return []Policy{ModHash{}, Rendezvous{}}
}

func TestDeterministicAndInRange(t *testing.T) {
	for _, pol := range policies() {
		f := func(path string, servers uint8) bool {
			n := int(servers%64) + 1
			a := pol.Place(path, n)
			b := pol.Place(path, n)
			return a == b && a >= 0 && a < n
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

func TestReplicasDistinctAndPrimaryFirst(t *testing.T) {
	for _, pol := range policies() {
		f := func(path string, servers, reps uint8) bool {
			n := int(servers%32) + 1
			r := int(reps%8) + 1
			got := pol.Replicas(path, n, r)
			want := r
			if want > n {
				want = n
			}
			if len(got) != want {
				return false
			}
			if got[0] != pol.Place(path, n) {
				return false
			}
			seen := map[int]bool{}
			for _, s := range got {
				if s < 0 || s >= n || seen[s] {
					return false
				}
				seen[s] = true
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

// Balance: placing many distinct paths over n servers should come out
// close to uniform — the property Fig. 15 plots.
func TestBalance(t *testing.T) {
	const files = 60000
	for _, pol := range policies() {
		for _, n := range []int{8, 64, 256} {
			counts := make([]int, n)
			for i := 0; i < files; i++ {
				counts[pol.Place(fmt.Sprintf("/data/imagenet/n%08d.JPEG", i), n)]++
			}
			mean := float64(files) / float64(n)
			var ss float64
			for _, c := range counts {
				d := float64(c) - mean
				ss += d * d
			}
			cv := math.Sqrt(ss/float64(n)) / mean
			// Binomial sampling gives cv ~= sqrt(n/files); allow 4x slack.
			limit := 4 * math.Sqrt(float64(n)/float64(files))
			if cv > limit {
				t.Errorf("%s n=%d: cv=%.4f exceeds %.4f", pol.Name(), n, cv, limit)
			}
		}
	}
}

func TestAllocationSaltChangesPlacement(t *testing.T) {
	a := ModHash{AllocationSalt: 1}
	b := ModHash{AllocationSalt: 2}
	diff := 0
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("/f%04d", i)
		if a.Place(p, 16) != b.Place(p, 16) {
			diff++
		}
	}
	if diff < 800 {
		t.Fatalf("only %d/1000 placements changed with salt", diff)
	}
}

// Rendezvous moves only ~1/(n+1) of files when a server is added; modulo
// reshuffles almost everything. This is the ablation's point.
func TestReshuffleOnGrowth(t *testing.T) {
	moved := func(pol Policy, n int) float64 {
		const files = 20000
		m := 0
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/f%06d", i)
			if pol.Place(p, n) != pol.Place(p, n+1) {
				m++
			}
		}
		return float64(m) / files
	}
	rv := moved(Rendezvous{}, 16)
	mh := moved(ModHash{}, 16)
	if rv > 0.12 {
		t.Fatalf("rendezvous moved %.2f of files on growth, want ~1/17", rv)
	}
	if mh < 0.5 {
		t.Fatalf("modhash moved only %.2f on growth; expected a near-total reshuffle", mh)
	}
}

func TestSingleServer(t *testing.T) {
	for _, pol := range policies() {
		if got := pol.Place("/any", 1); got != 0 {
			t.Fatalf("%s: single server placement = %d", pol.Name(), got)
		}
		if got := pol.Replicas("/any", 1, 3); len(got) != 1 || got[0] != 0 {
			t.Fatalf("%s: single server replicas = %v", pol.Name(), got)
		}
	}
}

func TestPlaceZeroServersPanics(t *testing.T) {
	for _, pol := range policies() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic with 0 servers", pol.Name())
				}
			}()
			pol.Place("/x", 0)
		}()
	}
}
