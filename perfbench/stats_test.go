package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Fatalf("quantile sorted its input in place: %v", xs)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	if got := samplesBeyond(1000, 0.99); got != 10 {
		t.Errorf("samplesBeyond(1000, .99) = %d, want 10", got)
	}
	if got := samplesBeyond(500, 0.99); got != 5 {
		t.Errorf("samplesBeyond(500, .99) = %d, want 5", got)
	}
}

func TestRatioAndMean(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
	if mean(nil) != 0 || mean([]float64{1, 2, 6}) != 3 {
		t.Error("mean")
	}
}
