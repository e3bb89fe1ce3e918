package main

import "sort"

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks. It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0, so that no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailPercentiles are the percentiles a timing tail is reported at.
var tailPercentiles = []float64{99.9, 99, 97, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailPercentiles that
// leaves at least minBeyond of n samples above it, and false when even the
// median does not.
func tailPercentile(n, minBeyond int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= float64(minBeyond) {
			return p, true
		}
	}
	return 0, false
}
