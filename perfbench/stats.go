package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a tail percentile for it
// to be reported: a p90 needs at least 100 samples.
const minTail = 10

// percentile returns the pct-th percentile of xs, interpolating
// linearly between the two closest ranks (numpy's default). xs is
// sorted in place. An empty slice gives 0.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := pct / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return xs[lo] + (xs[hi]-xs[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is percentile for a tail (pct > 50): it reports
// ok=false unless at least minTail samples lie beyond the percentile,
// so a p90 is only given for 100 or more samples.
func tailPercentile(xs []float64, pct int) (v float64, ok bool) {
	if len(xs)*(100-pct) < minTail*100 {
		return 0, false
	}
	return percentile(xs, float64(pct)), true
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
