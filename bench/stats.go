package main

import (
	"math"
	"sort"
)

// Sample summarises the values one metric took over the reps of a run.
type Sample struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(vals []float64) Sample {
	if len(vals) == 0 {
		return Sample{}
	}
	s := sorted(vals)
	return Sample{Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return quantile(sorted(vals), 0.5)
}

// quantile interpolates linearly between the order statistics of the
// sorted slice s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the q-quantile of vals, falling back to the median when
// fewer than ten samples lie beyond it: a percentile with a handful of
// samples behind it is one outlier, not a measurement.
func tail(vals []float64, q float64) float64 {
	if float64(len(vals))*(1-q) < 10 {
		return median(vals)
	}
	return quantile(sorted(vals), q)
}

// relWorse is the relative change from a to b, signed so that positive
// means "worse" in the metric's direction.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
