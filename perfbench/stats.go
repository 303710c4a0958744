package main

import (
	"math"
	"sort"
)

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" interpolation of Python's statistics.quantiles(xs, n=4), so
// the figures this benchmark reports match the ones a reader recomputes
// from the raw samples. One sample is its own quartiles; none gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// median is the second quartile, 0 for no samples.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean is 0 for no samples.
func mean(xs []float64) float64 {
	return ratio(sum(xs), float64(len(xs)))
}

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between the closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d[lo] + (d[hi]-d[lo])*(pos-float64(lo))
}

// ratio returns num/den, or 0 when the base den is 0: a layer that did no
// work has no rate, and the benchmark reports that as 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nsWarmRatio is the share of transport network-simplex solves whose warm
// start was accepted: ns.warmstart / (ns.warmstart + ns.coldfallback).
func nsWarmRatio(warm, cold float64) float64 {
	return ratio(warm, warm+cold)
}

// usPerPivot is the global MCF's cost per network-simplex pivot in
// microseconds.
func usPerPivot(solveS, pivots float64) float64 {
	return ratio(solveS*1e6, pivots)
}
