package main

import (
	"math"
	"sort"
)

// summary is how every timed metric is reported: the median of the timed
// rounds with the spread beside it, and the per-round values in run order.
type summary struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := sorted(values)
	return summary{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s), Values: values}
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no values.
func median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile: the smallest value with at least
// p percent of the samples at or below it.
func percentile(values []float64, p float64) float64 {
	s := sorted(values)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile picks the highest of p99/p95/p90/p75 that still has at least
// ten samples beyond it, so the reported tail is never one outlier; 50 when
// the sample is too small for any of them.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}
