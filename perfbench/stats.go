package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tail percentiles: a
// percentile is reported only from a run that leaves at least this
// many samples above it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// ascending samples and how many samples lie beyond it. The value is
// the smallest sample with at least p·n samples at or below it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// quartiles returns the first quartile, median and third quartile of
// the values with the "exclusive" method of Python's
// statistics.quantiles(values, n=4), so spreads computed here match
// the ones computed from the result files with Python.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive", in its exact
		// integer form: j is clamped before delta is taken.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// geomean is the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
