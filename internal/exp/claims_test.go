package exp

// Paper claims as executable tests: each test runs an experiment at the
// scale where the paper's number holds and compares the result with it.

import (
	"context"
	"testing"

	"repro/internal/sparse"
)

// TestFigure11MatchesPaper checks Figure 11 over the whole suite; a
// subset moves the mean (ten matrices read 63×), so none is sampled.
// Managing memory at 4 KB pages costs 53× the ideal store on average in
// the paper, and the suite's mean must lie within 15% of that. A finer
// granularity must also beat CSR on at least as many matrices as every
// coarser one.
func TestFigure11MatchesPaper(t *testing.T) {
	results, err := RunFigure11Pool(context.Background(), Pool{Parallel: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != sparse.SuiteSize {
		t.Fatalf("got %d matrices, want the whole suite of %d", len(results), sparse.SuiteSize)
	}

	var page float64
	for _, r := range results {
		page += r.Overheads[4096]
	}
	const paper, tol = 53.0, 0.15
	if mean := page / float64(len(results)); mean < paper*(1-tol) || mean > paper*(1+tol) {
		t.Errorf("mean 4KB overhead %.2fx over ideal, want %.0fx ± %.0f%%", mean, paper, 100*tol)
	}

	prev, prevSize := len(results), 0
	for _, sz := range LineSizes {
		beat := 0
		for _, r := range results {
			if r.Overheads[sz] < r.CSR {
				beat++
			}
		}
		if beat > prev {
			t.Errorf("%d matrices beat CSR at %dB, more than the %d at %dB", beat, sz, prev, prevSize)
		}
		prev, prevSize = beat, sz
	}
}
