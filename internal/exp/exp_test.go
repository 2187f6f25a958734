package exp

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/sparse"
	"repro/internal/workload"
)

func TestForkBenchmarkShapes(t *testing.T) {
	// One benchmark per type at quick scale: the qualitative Figure 8/9
	// relationships must hold even in a short window.
	params := QuickForkParams()

	type1, err := RunForkBenchmark(context.Background(), mustSpec(t, "hmmer"), params)
	if err != nil {
		t.Fatal(err)
	}
	// Type 1: tiny additional memory under both mechanisms.
	if type1.CoW.AddedBytes > 64<<10 {
		t.Errorf("type1 CoW added %d bytes, expected tiny", type1.CoW.AddedBytes)
	}

	type2, err := RunForkBenchmark(context.Background(), mustSpec(t, "lbm"), params)
	if err != nil {
		t.Fatal(err)
	}
	// Type 2: both mechanisms converge to similar memory (dense writes)…
	ratio := float64(type2.OoW.AddedBytes) / float64(type2.CoW.AddedBytes)
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("type2 memory ratio = %.2f, want ≈1", ratio)
	}
	// …but overlays win on performance for spread-out writes.
	if type2.Speedup() < 1.0 {
		t.Errorf("type2 spread speedup = %.2f, want > 1", type2.Speedup())
	}

	type3, err := RunForkBenchmark(context.Background(), mustSpec(t, "mcf"), params)
	if err != nil {
		t.Fatal(err)
	}
	// Type 3: overlays slash additional memory and improve performance.
	if type3.MemoryReduction() < 0.5 {
		t.Errorf("type3 memory reduction = %.2f, want > 0.5", type3.MemoryReduction())
	}
	if type3.Speedup() < 1.0 {
		t.Errorf("type3 speedup = %.2f, want > 1", type3.Speedup())
	}
	if type3.CoW.PageCopies == 0 || type3.OoW.Overlaying == 0 {
		t.Error("mechanism counters empty")
	}
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunForkSuiteSubset(t *testing.T) {
	results, err := RunForkSuitePool(context.Background(), Pool{Parallel: 1}, QuickForkParams(), []string{"bwaves", "astar"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Benchmark != "bwaves" {
		t.Fatalf("results = %+v", results)
	}
	var sb strings.Builder
	PrintFigure8(&sb, results)
	PrintFigure9(&sb, results)
	out := sb.String()
	for _, want := range []string{"Figure 8", "Figure 9", "bwaves", "astar", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunForkSuiteUnknownName(t *testing.T) {
	if _, err := RunForkSuitePool(context.Background(), Pool{Parallel: 1}, QuickForkParams(), []string{"nope"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSpMVCrossesOverWithL(t *testing.T) {
	// Low-L matrix: CSR wins. High-L matrix: overlays win. The functional
	// cross-check inside RunSpMV also validates all three kernels.
	low := sparse.Random("low", 512, 512, 512*100, 1.3, 31)
	high := sparse.Random("high", 512, 512, 512*100, 7.8, 32)

	rLow, err := RunSpMV(low, false)
	if err != nil {
		t.Fatal(err)
	}
	rHigh, err := RunSpMV(high, false)
	if err != nil {
		t.Fatal(err)
	}
	if rLow.RelPerf() >= 1 {
		t.Errorf("low-L rel perf = %.2f, want < 1 (CSR should win)", rLow.RelPerf())
	}
	if rHigh.RelPerf() <= 1 {
		t.Errorf("high-L rel perf = %.2f, want > 1 (overlay should win)", rHigh.RelPerf())
	}
	if rLow.RelMem() <= rHigh.RelMem() {
		t.Error("relative memory should fall as L rises")
	}
	// Segment-rounded footprint is never below the line-byte accounting.
	if rHigh.OverlaySegBytes < rHigh.OverlayBytes {
		t.Error("segment footprint below line bytes")
	}
}

func TestFigure10Sampling(t *testing.T) {
	results, err := RunFigure10Pool(context.Background(), Pool{Parallel: 1}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	// Sorted by L, covering a spread.
	if results[0].L >= results[2].L {
		t.Fatal("subsample lost the L ordering/spread")
	}
	var sb strings.Builder
	PrintFigure10(&sb, results)
	if !strings.Contains(sb.String(), "Figure 10") {
		t.Fatal("print output malformed")
	}
}

func TestFigure11Shapes(t *testing.T) {
	results, err := RunFigure11Pool(context.Background(), Pool{Parallel: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		// Overhead grows monotonically with block size and is ≥ 1.
		prev := 0.0
		for _, sz := range LineSizes {
			o := r.Overheads[sz]
			if o < 1.0 {
				t.Fatalf("%s: overhead %.2f below ideal at %dB", r.Matrix, o, sz)
			}
			if o < prev {
				t.Fatalf("%s: overhead shrank with larger blocks", r.Matrix)
			}
			prev = o
		}
		// CSR is ≈1.5× ideal.
		if r.CSR < 1.4 || r.CSR > 1.7 {
			t.Fatalf("%s: CSR overhead %.2f, want ≈1.5", r.Matrix, r.CSR)
		}
	}
	// Page granularity is dramatically worse than line granularity.
	var page, line float64
	for _, r := range results {
		page += r.Overheads[4096]
		line += r.Overheads[64]
	}
	if page < 5*line {
		t.Errorf("4KB overhead (%.1f) not ≫ 64B overhead (%.1f)", page/10, line/10)
	}
	var sb strings.Builder
	PrintFigure11(&sb, results)
	if !strings.Contains(sb.String(), "granularity") {
		t.Fatal("print output malformed")
	}
}

// TestSuiteSubsetMatchesSortedSuite checks that picking specs without
// building them names the same matrices, in the same order, as the
// reference selection: build the whole suite, stable-sort it by
// measured L, then subsample.
func TestSuiteSubsetMatchesSortedSuite(t *testing.T) {
	var all []*sparse.Matrix
	for _, s := range sparse.SuiteSpecs() {
		all = append(all, s.Build())
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].L() < all[j].L() })
	for _, k := range []int{0, 1, 2, 6, 12, 86, 87, 200} {
		want := all
		if k > 0 && k < len(all) {
			want = nil
			for i := 0; i < k; i++ {
				want = append(want, all[i*len(all)/k])
			}
		}
		got := suiteSubset(k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d specs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name {
				t.Fatalf("k=%d: entry %d is %s, want %s", k, i, got[i].Name, want[i].Name)
			}
		}
	}
}

func TestSparsitySweepMonotone(t *testing.T) {
	results, err := RunSparsitySweepPool(context.Background(), Pool{Parallel: 1}, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d points", len(results))
	}
	// Overlay is at worst at parity with dense (within the ~10 % OMS
	// fragmentation cost visible only at exactly 0 % zero lines — see
	// EXPERIMENTS.md), and the advantage grows with sparsity.
	for i, r := range results {
		if r.Speedup() < 0.9 {
			t.Errorf("point %d: overlay slower than dense (%.2fx)", i, r.Speedup())
		}
	}
	if results[len(results)-1].Speedup() <= results[0].Speedup() {
		t.Error("speedup should grow with the zero-line fraction")
	}
	var sb strings.Builder
	PrintSweep(&sb, results)
	if !strings.Contains(sb.String(), "Sparsity sweep") {
		t.Fatal("print output malformed")
	}
}

// TestSweepDenseBaselineIndependentOfPoint pins what lets the sweep
// simulate its dense baseline once: the densest and the sparsest point
// of the bench plan's sweep (8 points, 128 rows) take the same dense
// cycles, each on a fresh framework.
func TestSweepDenseBaselineIndependentOfPoint(t *testing.T) {
	var cycles [2]uint64
	for k, i := range []int{0, 7} {
		m := sweepMatrix(i, 8, 128)
		var err error
		if cycles[k], err = runSweepDense(spmvConfig(m.DenseBytes()), m); err != nil {
			t.Fatal(err)
		}
	}
	if cycles[0] != cycles[1] {
		t.Errorf("dense cycles differ across sweep points: %d at 0%% zero lines, %d at 100%%", cycles[0], cycles[1])
	}
}

func TestSweepNeedsTwoPoints(t *testing.T) {
	if _, err := RunSparsitySweepPool(context.Background(), Pool{Parallel: 1}, 1, 64); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunStatsExport(t *testing.T) {
	spec := mustSpec(t, "hmmer")
	cfg := spmvConfig(0)
	cfg.MemoryPages = spec.Pages*2 + 16384
	out, _, err := RunStatsExport(context.Background(), spec, cfg, QuickForkParams(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cpi") || !strings.Contains(out, "tlb.l1_hits") {
		t.Fatalf("stats dump malformed:\n%s", out)
	}
}

func TestDualCoreDivergence(t *testing.T) {
	oow := RunDualCoreDivergence(true)
	cow := RunDualCoreDivergence(false)
	if oow.Shootdowns != 0 {
		t.Fatalf("overlay mechanism shot down TLBs %d times", oow.Shootdowns)
	}
	if oow.LineUpdates == 0 {
		t.Fatal("overlay mechanism delivered no line updates")
	}
	if cow.Shootdowns == 0 {
		t.Fatal("conventional mechanism never shot down")
	}
	if oow.WriterCycles >= cow.WriterCycles {
		t.Errorf("overlay writer (%d) not faster than copy+shootdown (%d)",
			oow.WriterCycles, cow.WriterCycles)
	}
	var sb strings.Builder
	PrintDualCore(&sb, []DualCoreResult{oow, cow})
	if !strings.Contains(sb.String(), "MESI") {
		t.Fatal("print malformed")
	}
}
