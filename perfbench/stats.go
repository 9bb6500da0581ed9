package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie above it, so p99 needs 1000 samples and p50
// needs 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs and whether the
// sample count satisfies the minBeyond rule. xs is sorted in place.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p * float64(n)))
	k = min(max(k, 1), n)
	return xs[k-1], n-k >= minBeyond
}

// mustPercentile is percentile for a metric the run has to report: a
// sample too small for the rule is an error naming the metric.
func mustPercentile(name string, xs []float64, p float64) (float64, error) {
	v, ok := percentile(xs, p)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(xs), minBeyond, p*100)
	}
	return v, nil
}

// median is the p50 without the sample-count rule, for per-app medians over
// a handful of closed-loop rounds.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// share is a/b, zero when nothing was attempted.
func share(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
