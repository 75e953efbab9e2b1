package main

import (
	"math"
	"slices"
)

// tailBeyond is how many samples must lie beyond a reported percentile:
// a tail read off fewer is one outlier's position, not a percentile.
const tailBeyond = 10

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile picks the nearest-rank p-quantile (0 < p <= 1) of sorted and
// reports how many samples lie strictly beyond the picked position.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// tailReady reports whether n samples support the p-quantile under the
// tailBeyond rule.
func tailReady(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= tailBeyond
}
