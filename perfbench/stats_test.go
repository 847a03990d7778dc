package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 4}, 4},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// spread rule the benchmark's results are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3.1, 7}, 2.125, 7.975},
		{[]float64{0.81, 0.79, 0.85, 0.80, 0.95, 0.78, 0.83}, 0.79, 0.85},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if q1, q3 := quartiles([]float64{2}); q1 != 2 || q3 != 2 {
		t.Errorf("quartiles of one value = %v, %v, want the value", q1, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
