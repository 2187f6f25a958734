package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// SweepResult is one point of the §5.2 in-text experiment: randomly
// generated matrices with varying sparsity, overlay representation versus
// the dense baseline.
type SweepResult struct {
	ZeroLineFrac float64 // fraction of cache lines that are entirely zero
	OverlayCycles,
	DenseCycles uint64
}

// Speedup is dense/overlay cycles (≥ 1 expected at any sparsity).
func (r SweepResult) Speedup() float64 {
	if r.OverlayCycles == 0 {
		return 0
	}
	return float64(r.DenseCycles) / float64(r.OverlayCycles)
}

// sweepMatrix generates point i's matrix from its point-indexed seed.
// Fully dense lines (L = 8) isolate the zero-line-skipping effect; the
// exact generator reaches 0 % zero lines, which the clustered suite
// generator deliberately cannot.
func sweepMatrix(i, points, rows int) *sparse.Matrix {
	totalLines := rows * rows / sparse.ValuesPerLine
	frac := float64(i) / float64(points-1) // fraction of zero lines
	nnzLines := int(float64(totalLines) * (1 - frac))
	if nnzLines < 1 {
		nnzLines = 1
	}
	return sparse.ExactLines(fmt.Sprintf("sweep%02d", i), rows, rows, nnzLines, int64(900+i))
}

// runSweepDense maps the matrix densely on a framework built from cfg
// and simulates one SpMV iteration. The dense trace's address stream
// depends only on the matrix dimensions, never on its values, so every
// point of a sweep has the same dense cycle count
// (TestSweepDenseBaselineIndependentOfPoint pins this).
func runSweepDense(cfg core.Config, m *sparse.Matrix) (uint64, error) {
	f, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	proc := f.VM.NewProcess()
	layout, err := sparse.MapDense(f, proc, m)
	if err != nil {
		return 0, err
	}
	return simulateTrace(f, proc, sparse.DenseTrace(m, layout))
}

// RunSparsitySweepPool measures the sparsity sweep with one job per
// point fanned across the pool. Each job generates its own matrix from
// a point-indexed seed, so the sweep is deterministic at any worker
// count. The dense baseline is simulated once, before the points fan
// out: every point's dense trace touches the same address stream (see
// runSweepDense).
func RunSparsitySweepPool(ctx context.Context, pool Pool, points, rows int) ([]SweepResult, error) {
	if points < 2 {
		return nil, fmt.Errorf("exp: need at least 2 sweep points")
	}
	cfg := spmvConfig(rows * rows * 8)
	dense, err := runSweepDense(cfg, sweepMatrix(0, points, rows))
	if err != nil {
		return nil, err
	}
	totalLines := rows * rows / sparse.ValuesPerLine
	indices := make([]int, points)
	for i := range indices {
		indices[i] = i
	}
	return harness.Map(ctx, pool.opts("sweep"), indices,
		func(_ context.Context, i, _ int) (SweepResult, error) {
			m := sweepMatrix(i, points, rows)
			x, want := spmvOperand(m)
			_, overlay, err := runOverlay(cfg, m, x, want)
			if err != nil {
				return SweepResult{}, err
			}
			return SweepResult{
				ZeroLineFrac:  1 - float64(m.NNZBlocks(64))/float64(totalLines),
				OverlayCycles: overlay,
				DenseCycles:   dense,
			}, nil
		})
}

// PrintSweep renders the sparsity sweep (§5.2 in-text claim: overlays
// outperform the dense representation at all sparsity levels, with the
// gap growing linearly in the zero-line fraction).
func PrintSweep(w io.Writer, results []SweepResult) {
	fmt.Fprintln(w, "Sparsity sweep: overlay vs dense representation (one SpMV iteration)")
	fmt.Fprintf(w, "%12s %15s %15s %10s\n", "zero lines", "overlay cycles", "dense cycles", "speedup")
	for _, r := range results {
		fmt.Fprintf(w, "%11.0f%% %15d %15d %9.2fx\n",
			100*r.ZeroLineFrac, r.OverlayCycles, r.DenseCycles, r.Speedup())
	}
	fmt.Fprintln(w, "(paper: overlay outperforms dense at all sparsity levels; gap grows with zero-line fraction)")
}
