// Package stats provides the small statistical toolkit used by the
// simulation study: streaming mean/variance (Welford), replication
// summaries with confidence intervals and medians, and relative gains;
// the result tables and text plots live beside it.
//
// The paper reports results averaged over several independently seeded
// runs and notes that the spread stayed within 4%; Replication mirrors
// that methodology and lets tests assert the same property.
package stats

import (
	"math"
	"sort"
)

// Mean accumulates a streaming sample mean and variance using Welford's
// algorithm. The zero value is an empty accumulator ready to use.
type Mean struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (m *Mean) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of observations.
func (m *Mean) N() int { return m.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (m *Mean) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 for n < 2). The
// result is clamped at 0: floating-point cancellation on near-constant
// samples can leave m2 a hair below zero, and a negative variance would
// turn StdDev and CI95 into NaN.
func (m *Mean) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	v := m.m2 / float64(m.n-1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Sum returns n times the mean, i.e. the total of all observations.
func (m *Mean) Sum() float64 { return m.mean * float64(m.n) }

// RelSpread returns (max-min)/mean over the recorded extremes; see Extremes.
// Mean does not track extremes, so this lives on Replication below.

// Replication summarizes repeated simulation runs of the same
// configuration with different seeds.
type Replication struct {
	acc  Mean
	vals []float64
}

// Add records the result of one run.
func (r *Replication) Add(x float64) {
	r.acc.Add(x)
	r.vals = append(r.vals, x)
}

// N returns the number of runs recorded.
func (r *Replication) N() int { return r.acc.N() }

// Mean returns the across-run sample mean.
func (r *Replication) Mean() float64 { return r.acc.Mean() }

// StdDev returns the across-run sample standard deviation.
func (r *Replication) StdDev() float64 { return r.acc.StdDev() }

// Min returns the smallest recorded value (0 if empty).
func (r *Replication) Min() float64 {
	if len(r.vals) == 0 {
		return 0
	}
	min := r.vals[0]
	for _, v := range r.vals[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest recorded value (0 if empty).
func (r *Replication) Max() float64 {
	if len(r.vals) == 0 {
		return 0
	}
	max := r.vals[0]
	for _, v := range r.vals[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// RelSpread returns (max-min)/mean, the paper's "results were within 4%
// of each other" measure. It returns 0 for fewer than two runs or a zero
// mean.
func (r *Replication) RelSpread() float64 {
	if r.N() < 2 || r.Mean() == 0 {
		return 0
	}
	return (r.Max() - r.Min()) / r.Mean()
}

// CI95 returns the half-width of an approximate 95% confidence interval
// for the mean, using the normal critical value (adequate for the small
// replication counts used here; the paper reports spreads, not CIs).
func (r *Replication) CI95() float64 {
	if r.N() < 2 {
		return 0
	}
	return 1.96 * r.StdDev() / math.Sqrt(float64(r.N()))
}

// Median returns the sample median (0 if empty).
func (r *Replication) Median() float64 {
	if len(r.vals) == 0 {
		return 0
	}
	s := append([]float64(nil), r.vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Gain returns the relative improvement of b over a, i.e. (a-b)/a,
// matching the paper's "gain up to 90%" phrasing (positive when b is
// smaller/better). It returns 0 when a is 0.
func Gain(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}
