package main

import (
	"math"
	"slices"
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the samples at
// or below it. It returns 0 for no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of xs (the mean of the middle two for
// an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread returns the interquartile range of xs as a share of its median:
// the distance between the medians of the lower and the upper half.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	half := len(s) / 2
	m := median(s)
	if m == 0 {
		return 0
	}
	return (median(s[len(s)-half:]) - median(s[:half])) / m
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
