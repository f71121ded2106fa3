package main

import (
	"math"

	"mars/internal/metrics"
)

// minBeyond is the sample-size rule: a percentile is reported as
// supported only when at least this many samples lie beyond it.
const minBeyond = 10

// beyond is how many of n samples lie strictly above the q-quantile.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// supported reports whether n samples carry the q-quantile under the
// sample-size rule.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (metrics.CDF's definition, which is also numpy's and
// Python's "inclusive" method). It does not modify xs; an empty input
// gives 0.
func quantile(xs []float64, q float64) float64 { return metrics.NewCDF(xs).Quantile(q) }

// measure is one reported metric value with the samples behind it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of pooled samples; 0 for a count read once.
	N int `json:"n,omitempty"`
	// Q1 and Q3 are the quartiles of the same samples.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	// Undersampled marks a percentile with fewer than minBeyond samples
	// beyond it: still printed (the driver contract wants every metric on
	// every run) but not to be quoted.
	Undersampled bool `json:"undersampled,omitempty"`
}

// percentile reduces pooled samples to their q-quantile with quartiles
// and the sample-size verdict beside it.
func percentile(xs []float64, q float64) measure {
	cdf := metrics.NewCDF(xs)
	return measure{
		Value:        cdf.Quantile(q),
		N:            len(xs),
		Q1:           cdf.Quantile(0.25),
		Q3:           cdf.Quantile(0.75),
		Undersampled: !supported(len(xs), q) && q != 0.5,
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
