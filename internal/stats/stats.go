// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics with confidence intervals,
// quantiles, and least-squares fits.
//
// The scaling-law verdicts in EXPERIMENTS.md are produced by fitting the
// measured competitive ratio of each algorithm against the control parameter
// the paper predicts (log(mc), log²(mc), log m·log c, log m·log n) with
// Fit, and reporting slope, intercept and R².
//
// Concurrency contract: a Summary is a mutable accumulator and not safe
// for concurrent Add — the harness serializes Adds behind its own mutex
// (note that Add is a streaming-moment update, so even the insertion
// order perturbs the low-order bits of Var). Fit and the other free
// functions are pure and safe concurrently.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Summary holds streaming moment statistics over a sample.
// The zero value is an empty summary ready for use.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	sum        float64
	hasExtrema bool
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	s.sum += x
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.hasExtrema || x < s.min {
		s.min = x
	}
	if !s.hasExtrema || x > s.max {
		s.max = x
	}
	s.hasExtrema = true
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the sample mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Var returns the unbiased sample variance (n-1 denominator).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean. For the sample sizes used by the harness (>= 20
// repetitions) the normal approximation is adequate.
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

// String formats the summary as "mean ± ci95 [min, max] (n)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.Mean(), s.CI95(), s.Min(), s.Max(), s.N())
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns an error for an empty
// sample or q outside [0,1]. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// FitResult reports an ordinary least-squares line y = Slope*x + Intercept.
type FitResult struct {
	Slope, Intercept float64
	R2               float64 // coefficient of determination
	N                int
}

// Fit performs ordinary least squares of ys against xs.
// It returns an error unless len(xs) == len(ys) >= 2 and xs has nonzero
// variance.
func Fit(xs, ys []float64) (FitResult, error) {
	if len(xs) != len(ys) {
		return FitResult{}, fmt.Errorf("stats: Fit length mismatch %d != %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return FitResult{}, errors.New("stats: Fit needs at least 2 points")
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return FitResult{}, errors.New("stats: Fit requires nonconstant x")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := 0; i < n; i++ {
			resid := ys[i] - (slope*xs[i] + intercept)
			ssRes += resid * resid
		}
		r2 = 1 - ssRes/syy
	}
	return FitResult{Slope: slope, Intercept: intercept, R2: r2, N: n}, nil
}

// String formats the fit for experiment reports.
func (f FitResult) String() string {
	return fmt.Sprintf("y = %.4g*x + %.4g (R²=%.3f, n=%d)", f.Slope, f.Intercept, f.R2, f.N)
}

// Log2 is a convenience for the control parameters used throughout the
// experiments; the paper's bounds are stated with unspecified logarithm base
// and we standardize on base 2.
func Log2(x float64) float64 { return math.Log2(x) }

// GeoMean returns the geometric mean of xs, which must all be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: GeoMean of empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: GeoMean requires positive values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}
