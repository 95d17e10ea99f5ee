package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail value.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle
// samples when there is an even number; NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	// The epsilon keeps p*n/100 from rounding up past an exact rank.
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s[idx]
}

// tailStat is the highest percentile of a sample set that still has at
// least minBeyond samples above it.
type tailStat struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// tail picks the sample with exactly minBeyond samples above it, which
// is the highest rank that keeps that many beyond; ok is false when
// there are too few samples for any rank to qualify.
func tail(xs []float64) (t tailStat, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return tailStat{Samples: n}, false
	}
	s := sortedCopy(xs)
	idx := n - 1 - minBeyond
	return tailStat{
		Value:      s[idx],
		Percentile: 100 * float64(idx+1) / float64(n),
		Samples:    n,
	}, true
}
