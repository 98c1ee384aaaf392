// Package analysis provides the statistical machinery for comparing
// tuners rigorously: bootstrap confidence intervals, the Mann-Whitney
// U test (the standard nonparametric test for "tuner A finds better
// configurations than tuner B" without normality assumptions), and
// paired win rates.
package analysis

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sample"
	"repro/internal/stats"
)

// Interval is a two-sided confidence interval around a point
// estimate.
type Interval struct {
	Point, Lo, Hi float64
	// Confidence is the nominal level, e.g. 0.95.
	Confidence float64
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f]", iv.Point, iv.Lo, iv.Hi)
}

// BootstrapCI estimates a confidence interval for an arbitrary
// statistic of xs by percentile bootstrap with `resamples` draws
// (default 2000). The statistic receives a resampled copy it may
// reorder freely.
func BootstrapCI(xs []float64, stat func([]float64) float64, confidence float64, resamples int, seed uint64) Interval {
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	if resamples <= 0 {
		resamples = 2000
	}
	point := stat(append([]float64(nil), xs...))
	if len(xs) < 2 {
		return Interval{Point: point, Lo: point, Hi: point, Confidence: confidence}
	}
	rng := sample.NewRNG(seed ^ 0xb007)
	estimates := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[rng.IntN(len(xs))]
		}
		estimates[r] = stat(buf)
	}
	alpha := (1 - confidence) / 2
	return Interval{
		Point:      point,
		Lo:         stats.Percentile(estimates, alpha*100),
		Hi:         stats.Percentile(estimates, (1-alpha)*100),
		Confidence: confidence,
	}
}

// BootstrapMeanCI is BootstrapCI with the mean statistic.
func BootstrapMeanCI(xs []float64, confidence float64, seed uint64) Interval {
	return BootstrapCI(xs, stats.Mean, confidence, 0, seed)
}

// MannWhitney performs the two-sided Mann-Whitney U test (normal
// approximation with tie correction) on independent samples a and b.
// It returns the U statistic for a, the z score, and the two-sided
// p-value. Small p with U below its mean indicates a's values are
// stochastically smaller (better, for execution times).
func MannWhitney(a, b []float64) (u, z, p float64) {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks with tie groups.
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u = r1 - n1*(n1+1)/2
	mu := n1 * n2 / 2
	n := n1 + n2
	sigma2 := n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		// All values tied: no evidence either way.
		return u, 0, 1
	}
	z = (u - mu) / math.Sqrt(sigma2)
	p = 2 * (1 - stats.NormCDF(math.Abs(z)))
	return u, z, p
}

// Better reports whether sample a is significantly smaller (better,
// for times/costs) than b at the given significance level.
func Better(a, b []float64, alpha float64) bool {
	u, z, p := MannWhitney(a, b)
	_ = u
	return p < alpha && z < 0
}

// WinRate returns the fraction of paired sessions where a's value is
// strictly below b's. Inputs are paired by index; extra entries in
// the longer slice are ignored.
func WinRate(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return math.NaN()
	}
	wins := 0
	for i := 0; i < n; i++ {
		if a[i] < b[i] {
			wins++
		}
	}
	return float64(wins) / float64(n)
}
