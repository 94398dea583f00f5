package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// values: the smallest sample with at least q% of the samples at or below
// it. It returns NaN for an empty slice.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tailPercentile picks the percentile reported under a p90 name: 90 when at
// least minTail samples lie beyond it, otherwise the highest whole
// percentile that still has minTail samples beyond it (never below the
// median). It returns the percentile used and its value.
func tailPercentile(values []float64) (q, v float64) {
	n := float64(len(values))
	q = 90
	if n*(1-q/100) < minTail {
		q = math.Floor(100 * (1 - minTail/n))
	}
	if q < 50 {
		q = 50
	}
	return q, percentile(values, q)
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for an empty slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
