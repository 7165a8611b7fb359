package main

import (
	"math"

	"repro/internal/metrics"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
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

// quantile is metrics.Quantile (linear interpolation between order
// statistics) reading 0 for an empty slice: a layer without samples
// reports 0 instead of panicking.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Quantile(xs, q)
}

// tailLadder is the fixed set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile applies the reporting rule of the choosing-metrics guide:
// the highest percentile of the ladder that still has at least ten samples
// beyond it (p90 at 100 samples, p99 at 1000). ok is false when even the
// median has fewer than ten samples beyond it, in which case no tail is
// reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		// The small epsilon keeps 100 × (1 − 0.9) from reading 9.999….
		if float64(n)*(100-c)/100+1e-9 >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// relGap is the relative distance of b from a, as a share of a.
func relGap(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}
