package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two nearest ranks of the sorted sample (the
// "exclusive" definition is not used: q=0 is the minimum and q=1 the
// maximum). It returns NaN for an empty sample and does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch {
	case q <= 0:
		return s[0]
	case q >= 1:
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// samplesBeyond is how many of n samples lie above the q-quantile: the
// guide's rule reports a tail percentile only when at least ten samples
// sit beyond it.
func samplesBeyond(n int, q float64) int {
	return int(math.Floor(float64(n) * (1 - q)))
}

// mean returns the arithmetic mean, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
