package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		pct  float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 90, 46},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.pct); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.pct, got, c.want)
		}
	}
}

// TestTailPercentileNeedsTenBeyond: a p90 is reported only from 100
// samples up, so that at least ten lie beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, ok := tailPercentile(xs(99), 90); ok {
		t.Error("p90 of 99 samples reported")
	}
	v, ok := tailPercentile(xs(100), 90)
	if !ok || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.1, true", v, ok)
	}
	if _, ok := tailPercentile(nil, 90); ok {
		t.Error("p90 of no samples reported")
	}
}

func TestMillis(t *testing.T) {
	got := millis([]time.Duration{1500 * time.Microsecond, 2 * time.Second})
	if got[0] != 1.5 || got[1] != 2000 {
		t.Errorf("millis = %v", got)
	}
}
