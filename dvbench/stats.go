package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a reported tail percentile must leave at least
// this many samples above it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and how
// many samples lie strictly beyond that rank. xs is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s) - 1 - rank
}

// minSamples is the smallest sample count at which percentile p leaves
// minBeyond samples beyond it.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		rank := int(math.Ceil(p*float64(n))) - 1
		if n-1-rank >= minBeyond {
			return n
		}
	}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
