package exp

// Paper claims as executable tests: each test runs an experiment at the
// scale where the paper's number holds and compares the result with it.

import (
	"context"
	"testing"

	"repro/internal/sparse"
	"repro/internal/workload"
)

// TestFigure8MatchesPaper checks Figure 8 over all 15 benchmarks at the
// quick window (60k/150k). Overlay-on-write cuts the memory a fork adds
// by 53% on average in the paper; the suite's mean reduction must lie
// within 15% of that. Type 2 benchmarks write almost every line of the
// pages they touch, so overlays save them next to nothing.
func TestFigure8MatchesPaper(t *testing.T) {
	results, err := RunForkSuitePool(context.Background(), Pool{Parallel: 2}, QuickForkParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(workload.Suite()) {
		t.Fatalf("got %d benchmarks, want the whole suite of %d", len(results), len(workload.Suite()))
	}
	var cow, oow float64
	for _, r := range results {
		cow += float64(r.CoW.AddedBytes)
		oow += float64(r.OoW.AddedBytes)
		if r.Type == workload.Type2 && r.MemoryReduction() > 0.05 {
			t.Errorf("%s (type 2): reduction %.1f%%, want at most 5%%", r.Benchmark, 100*r.MemoryReduction())
		}
	}
	const paper, tol = 53.0, 0.15
	if mean := 100 * (1 - oow/cow); mean < paper*(1-tol) || mean > paper*(1+tol) {
		t.Errorf("mean reduction %.1f%%, want %.0f%% ± %.0f%%", mean, paper, 100*tol)
	}
}

// TestCompareOrdering checks the cross-backend ranking compare reports
// at its default window (results_compare.txt): the fork window runs
// fastest under overlays, then VBI, then Utopia, then the conventional
// baseline, and overlays add fewer bytes than every rival.
func TestCompareOrdering(t *testing.T) {
	params := DefaultCompareParams()
	params.Matrices = 1
	report, err := RunComparePool(context.Background(), Pool{Parallel: 2}, params)
	if err != nil {
		t.Fatal(err)
	}
	legs := map[string]CompareForkLeg{}
	for _, b := range report.Backends {
		legs[b.Backend] = b.Fork
	}
	order := []string{"overlay", "vbi", "utopia", "baseline"}
	for i := 1; i < len(order); i++ {
		if a, b := legs[order[i-1]], legs[order[i]]; a.Cycles >= b.Cycles {
			t.Errorf("fork cycles: %s %d, not below %s %d", order[i-1], a.Cycles, order[i], b.Cycles)
		}
	}
	for _, rival := range order[1:] {
		if o, r := legs["overlay"], legs[rival]; o.AddedBytes >= r.AddedBytes {
			t.Errorf("added bytes: overlay %d, not below %s %d", o.AddedBytes, rival, r.AddedBytes)
		}
	}
}

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
