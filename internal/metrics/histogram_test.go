package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Quantile(1) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	// Quantile is a power-of-two upper bound, up to the largest bucket.
	for _, q := range []float64{0.5, 1} {
		if d := h.Quantile(q); d < time.Millisecond || d > 2*time.Millisecond {
			t.Fatalf("quantile %v = %v, want within [1ms, 2ms]", q, d)
		}
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles out of order: %v %v %v", p50, p90, p99)
	}
	if p50 > 2*501*time.Microsecond {
		t.Fatalf("p50 = %v, too high", p50)
	}
	if h.Quantile(-1) > h.Quantile(2) {
		t.Fatal("clamped quantiles inverted")
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(1); q != 0 {
		t.Fatalf("p100 = %v, want 0: both observations land in the zero bucket", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}
