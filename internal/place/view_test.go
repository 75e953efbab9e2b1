package place

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// TestViewFullMembershipMatchesPolicy: with every member active, the view
// is a pass-through — same primary, same replica set as the bare policy.
func TestViewFullMembershipMatchesPolicy(t *testing.T) {
	for _, pol := range policies() {
		f := func(path string, servers, reps uint8) bool {
			n := int(servers%16) + 1
			r := int(reps%4) + 1
			v := NewView(pol, n)
			got := v.Replicas(path, r)
			want := pol.Replicas(path, n, r)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return v.Place(path) == pol.Place(path, n) && v.Version() == 0
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

// TestViewMinimalMovement is the minimal-key-movement property: under
// Rendezvous, removing one of n servers relocates exactly the
// keys that were homed on it — about K/n of K keys, never more than a
// hash-imbalance slack over that — and a join that restores the member
// restores every key to its original home. A no-op Leave/Join (member
// already in that state) moves zero keys and leaves Version unchanged.
func TestViewMinimalMovement(t *testing.T) {
	const keys = 512
	pol := Rendezvous{}
	f := func(servers, victimSeed uint8) bool {
		n := int(servers%7) + 2 // 2..8 servers
		victim := int(victimSeed) % n
		v := NewView(pol, n)

		before := make([]int, keys)
		for k := 0; k < keys; k++ {
			before[k] = v.Place(fmt.Sprintf("/data/f%05d.bin", k))
		}

		// No-op membership calls move nothing.
		if v.Join(victim) || v.Leave(-1) || v.Leave(n) {
			return false
		}
		if v.Version() != 0 {
			return false
		}

		if !v.Leave(victim) {
			return false
		}
		moved := 0
		for k := 0; k < keys; k++ {
			after := v.Place(fmt.Sprintf("/data/f%05d.bin", k))
			if after == victim {
				return false // departed member must not be placed
			}
			if after != before[k] {
				// Only keys homed on the victim may move.
				if before[k] != victim {
					return false
				}
				moved++
			} else if before[k] == victim {
				return false
			}
		}
		// ~K/n with slack for hash imbalance (3x expectation).
		if moved > 3*keys/n {
			return false
		}

		// Join restores the exact original placement.
		if !v.Join(victim) {
			return false
		}
		for k := 0; k < keys; k++ {
			if v.Place(fmt.Sprintf("/data/f%05d.bin", k)) != before[k] {
				return false
			}
		}
		return v.Version() == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
}

// TestViewReplicasUnderLeave: after a leave, replica sets stay distinct,
// active-only, primary-first, and clamped to the active member count.
func TestViewReplicasUnderLeave(t *testing.T) {
	for _, pol := range policies() {
		f := func(path string, servers, reps, victimSeed uint8) bool {
			n := int(servers%8) + 2
			r := int(reps%4) + 1
			victim := int(victimSeed) % n
			v := NewView(pol, n)
			v.Leave(victim)
			got := v.Replicas(path, r)
			want := r
			if want > n-1 {
				want = n - 1
			}
			if len(got) != want {
				return false
			}
			if got[0] != v.Place(path) {
				return false
			}
			seen := map[int]bool{}
			for _, s := range got {
				if s == victim || s < 0 || s >= n || seen[s] {
					return false
				}
				seen[s] = true
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

// TestViewLastMemberCannotLeave: the view refuses to empty itself.
func TestViewLastMemberCannotLeave(t *testing.T) {
	v := NewView(ModHash{}, 2)
	if !v.Leave(0) {
		t.Fatal("first leave refused")
	}
	if v.Leave(1) {
		t.Fatal("last active member allowed to leave")
	}
	if v.NumActive() != 1 || !v.Alive(1) {
		t.Fatalf("active=%d alive(1)=%v", v.NumActive(), v.Alive(1))
	}
	if got := v.Replicas("/x", 4); len(got) != 1 || got[0] != 1 {
		t.Fatalf("replicas = %v, want [1]", got)
	}
}

// TestViewConcurrentPlaceUnderChurn hammers Replicas/Place from several
// goroutines while another flips one member in and out. View takes only
// its read lock around the base policy, so this is race-free exactly when
// the policy is the stateless value Policy's doc demands; the deleted Ring
// memoised its table in an unlocked map there. Run under -race: each round
// releases its readers together onto a fresh policy value, so a policy
// that builds state on first use builds it from several goroutines at
// once. Every answer must be the preference order's first r entries, with
// or without the flapping member.
func TestViewConcurrentPlaceUnderChurn(t *testing.T) {
	const n, r, victim, readers, rounds, reads = 8, 3, 2, 4, 20, 200
	for round := 0; round < rounds; round++ {
		for _, pol := range policies() {
			v := NewView(pol, n)
			start := make(chan struct{})
			stop := make(chan struct{})
			var churn, wg sync.WaitGroup
			churn.Add(1)
			go func() {
				defer churn.Done()
				<-start
				for {
					select {
					case <-stop:
						return
					default:
						v.Leave(victim)
						v.Join(victim)
					}
				}
			}()
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for i := 0; i < reads; i++ {
						path := fmt.Sprintf("/data/g%d/f%05d.bin", g, i)
						got := v.Replicas(path, r)
						full := pol.Replicas(path, n, n)
						k := 0
						for _, s := range full {
							if k < len(got) && got[k] == s {
								k++
							} else if s != victim {
								break
							}
						}
						if len(got) != r || k != r {
							t.Errorf("%s: Replicas(%q) = %v, not a prefix of %v with or without %d", pol.Name(), path, got, full, victim)
							return
						}
						if p := v.Place(path); p < 0 || p >= n {
							t.Errorf("%s: Place(%q) = %d out of range", pol.Name(), path, p)
							return
						}
					}
				}(g)
			}
			close(start)
			wg.Wait()
			close(stop)
			churn.Wait()
		}
	}
}
