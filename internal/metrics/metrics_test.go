package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %f", s.Mean())
	}
	if math.Abs(s.Stddev()-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev = %f", s.Stddev())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stddev() != 0 || s.Min() != 0 || s.Max() != 0 || s.CV() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	if xs, fs := s.CDF(); xs != nil || fs != nil {
		t.Fatal("empty CDF should be nil")
	}
	if s.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestQuantile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %f", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Fatalf("q1 = %f", q)
	}
	if q := s.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Fatalf("median = %f, want 50.5", q)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		xs, fs := s.CDF()
		if len(xs) != len(fs) {
			return false
		}
		if !sort.Float64sAreSorted(xs) {
			return false
		}
		for i := range fs {
			if fs[i] <= 0 || fs[i] > 1 {
				return false
			}
			if i > 0 && fs[i] < fs[i-1] {
				return false
			}
		}
		return s.N() == 0 || fs[len(fs)-1] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is between min and max for any non-empty sample.
func TestMeanBounded(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Clamp to a range where the running sum cannot overflow.
			s.Add(math.Mod(v, 1e12))
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-6*math.Abs(s.Min())-1e-9 && m <= s.Max()+1e-6*math.Abs(s.Max())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "nodes", "gpfs", "hvac")
	tb.AddFloats("32", 1, 10.5, 8.25)
	tb.AddRow("1024", "99.0", "42.0")
	out := tb.String()
	if !strings.Contains(out, "## Fig X") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "nodes") || !strings.Contains(lines[1], "hvac") {
		t.Fatalf("bad header: %q", lines[1])
	}
	if !strings.Contains(out, "8.2") || !strings.Contains(out, "42.0") {
		t.Fatalf("missing cells:\n%s", out)
	}
}

func TestCV(t *testing.T) {
	var s Sample
	for _, v := range []float64{10, 10, 10, 10} {
		s.Add(v)
	}
	if s.CV() != 0 {
		t.Fatalf("uniform CV = %f, want 0", s.CV())
	}
	var u Sample
	u.Add(1)
	u.Add(19)
	if u.CV() <= 0.5 {
		t.Fatalf("skewed CV = %f, want > 0.5", u.CV())
	}
}
