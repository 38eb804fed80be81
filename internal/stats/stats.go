// Package stats provides the small statistical utilities used by the
// measurement and analysis layers: running means, extrema and variance,
// percentiles and medians.
package stats

import (
	"math"
	"sort"
)

// Running accumulates a stream of samples and reports count, mean, min, max
// and sample variance without retaining the samples (Welford's algorithm).
type Running struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one sample.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Count reports the number of samples seen.
func (r *Running) Count() int64 { return r.n }

// Mean reports the arithmetic mean of the samples, or 0 if none.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.mean
}

// Min reports the smallest sample, or 0 if none.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max reports the largest sample, or 0 if none.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// SampleVariance reports the unbiased sample variance (÷n−1, Bessel's
// correction) — the estimator the benchmark-statistics layer uses when
// the observed repetitions stand in for the distribution of all possible
// runs.
func (r *Running) SampleVariance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// SampleStdDev reports the sample standard deviation (√SampleVariance).
func (r *Running) SampleStdDev() float64 { return math.Sqrt(r.SampleVariance()) }

// sortedFinite returns a sorted copy of xs with NaNs removed.
// sort.Float64s leaves NaNs in unspecified positions, so a single NaN
// sample would otherwise silently corrupt every order statistic computed
// here. NaNs carry no ordering information; dropping them keeps the
// statistics of the samples that do. Infinities are kept: they order
// correctly.
func sortedFinite(xs []float64) []float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation. It copies and sorts the input; NaN samples are dropped.
// An empty (or all-NaN) input yields 0.
func Percentile(xs []float64, p float64) float64 {
	s := sortedFinite(xs)
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the middle value of xs (mean of the two middle values for
// even lengths), or 0 for an empty slice. It copies and sorts the input;
// NaN samples are dropped so one poisoned sample cannot corrupt the
// median of the rest.
func Median(xs []float64) float64 {
	s := sortedFinite(xs)
	if len(s) == 0 {
		return 0
	}
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
