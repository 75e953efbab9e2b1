package metrics

import (
	"math/bits"
	"sync"
	"time"
)

// Histogram is a concurrency-safe log2-bucketed latency histogram, used
// by the real-mode HVAC server to report per-operation service times.
type Histogram struct {
	mu     sync.Mutex
	counts [64]int64
	total  int64
	sumNS  int64
}

func bucketOf(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[bucketOf(d)]++
	h.total++
	h.sumNS += d.Nanoseconds()
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean reports the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sumNS / h.total)
}

// Quantile estimates the q-quantile (0..1) from bucket boundaries; the
// result is an upper bound of the true quantile within a factor of two.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum > target {
			if b == 0 {
				return 0
			}
			return time.Duration(uint64(1) << uint(b)) // bucket upper bound
		}
	}
	panic("metrics: histogram buckets sum short of its count") // target < total = Σ counts
}
