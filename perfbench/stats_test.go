package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Reverse order, so the functions must sort.
		xs[i] = float64(n - i)
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000) // values 1..1000
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		wantPct float64
	}{
		// Exactly ten samples lie above the reported one.
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{50, 40, 80},
		{1000, 990, 99},
		{20000, 19990, 99.95},
	} {
		got, ok := tail(seq(tc.n))
		if !ok {
			t.Fatalf("tail of %d samples: not ok", tc.n)
		}
		if got.Value != tc.want || math.Abs(got.Percentile-tc.wantPct) > 1e-9 || got.Samples != tc.n {
			t.Errorf("tail of 1..%d = %+v, want value %v at p%v", tc.n, got, tc.want, tc.wantPct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != minBeyond {
			t.Errorf("tail of 1..%d leaves %d samples beyond, want %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestTailTooFewSamples(t *testing.T) {
	for _, n := range []int{0, 1, 10} {
		if _, ok := tail(seq(n)); ok {
			t.Errorf("tail of %d samples reported ok; no rank has %d beyond", n, minBeyond)
		}
	}
}
