package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of samples sorted in
// ascending order, by the nearest-rank rule: the smallest sample with at
// least p·n samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []uint32, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return float64(sorted[rank-1])
}

// tailLadder are the percentiles a tail report may quote, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten samples beyond it among n samples — the deepest tail
// figure the sample supports. ok is false when even the median has fewer
// than ten samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		// n − ⌈q·n⌉ samples lie strictly beyond the nearest-rank quantile.
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// median returns the median of vals (mean of the middle pair for an even
// count), 0 for none. vals is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives with its default "exclusive"
// method, which is how the spread of repeated runs is judged. It needs at
// least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// coefficientOfVariation is the standard deviation of vals over their mean.
func coefficientOfVariation(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss/float64(len(vals)-1)) / mean
}
