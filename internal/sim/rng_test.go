package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %f", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%200) + 1
		p := NewRNG(seed).Perm(m)
		if len(p) != m {
			return false
		}
		sorted := append([]int(nil), p...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %f, want ~1", variance)
	}
}

func TestLogNormalMean(t *testing.T) {
	// E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
	r := NewRNG(5)
	mu, sigma := 1.0, 0.5
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormal(mu, sigma)
	}
	want := math.Exp(mu + sigma*sigma/2)
	got := sum / n
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("lognormal mean = %f, want ~%f", got, want)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3.5)
	}
	if got := sum / n; math.Abs(got-3.5)/3.5 > 0.03 {
		t.Fatalf("exp mean = %f, want ~3.5", got)
	}
}

func TestUniformity(t *testing.T) {
	r := NewRNG(11)
	const buckets = 16
	counts := make([]int, buckets)
	const n = 160000
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := n / buckets
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Fatalf("bucket %d count %d deviates >5%% from %d", i, c, want)
		}
	}
}
