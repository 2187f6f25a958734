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

// TestFigure10ExtremesMatchPaper checks Figure 10 at the suite's two
// extremes, where the paper names its numbers: poisson3Db (L 1.09) runs
// at 0.30× CSR's speed in 4.83× its memory, raefsky4 (L 8) at 1.92× in
// 0.66×. Each ratio must lie within 15% of the paper's.
func TestFigure10ExtremesMatchPaper(t *testing.T) {
	specs := sparse.SuiteSpecs()
	cases := []struct {
		spec         sparse.SuiteSpec
		perf, memory float64
	}{
		{specs[0], 0.30, 4.83},
		{specs[len(specs)-1], 1.92, 0.66},
	}
	const tol = 0.15
	within := func(got, paper float64) bool { return got >= paper*(1-tol) && got <= paper*(1+tol) }
	for _, c := range cases {
		r, err := RunSpMV(c.spec.Build(), false)
		if err != nil {
			t.Fatal(err)
		}
		if !within(r.RelPerf(), c.perf) {
			t.Errorf("%s (L %.2f): perf %.3fx CSR, want %.2fx ± %.0f%%", r.Matrix, r.L, r.RelPerf(), c.perf, 100*tol)
		}
		if !within(r.RelMem(), c.memory) {
			t.Errorf("%s (L %.2f): memory %.3fx CSR, want %.2fx ± %.0f%%", r.Matrix, r.L, r.RelMem(), c.memory, 100*tol)
		}
	}
}
