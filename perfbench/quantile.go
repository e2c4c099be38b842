package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the highest nearest-rank percentile p <= maxP of xs
// that has at least minBeyond samples above it, the value at that rank and
// the sample count. ok is false when xs has too few samples for any
// percentile to qualify.
func percentile(xs []float64, maxP float64) (v, p float64, n int, ok bool) {
	n = len(xs)
	rank := int(math.Ceil(maxP / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 {
		return 0, 0, n, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], 100 * float64(rank) / float64(n), n, true
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}
