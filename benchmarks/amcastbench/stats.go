package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of an ascending sample set
// by nearest rank: the smallest sample with at least q of the set at or
// below it. An empty set yields 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond is how many of n samples lie above the q-quantile's rank.
func samplesBeyond(n int, q float64) int { return n - rankOf(n, q) }

// minBeyond is the sample floor under a reported percentile: a percentile
// with fewer samples beyond it is one or two outliers, not a tail.
const minBeyond = 10

// supported reports whether n samples carry the q-quantile.
func supported(n int, q float64) bool { return samplesBeyond(n, q) >= minBeyond }

// median is the middle of xs (mean of the middle two when even); the
// reported value of every metric is the median of its per-rep values. The
// input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, 0 when b is 0 (a per-multicast ratio of a layer that did
// no work reads 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
