package exp

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/sparse"
	"repro/internal/vm"
)

// SpMVResult is one Figure 10 data point: one matrix, one SpMV iteration
// under each representation.
type SpMVResult struct {
	Matrix string
	L      float64
	NNZ    int

	OverlayCycles uint64
	CSRCycles     uint64
	DenseCycles   uint64 // zero unless the dense baseline was requested

	OverlayBytes    int // paper accounting: 64 B per non-zero line
	OverlaySegBytes int // true OMS footprint incl. segment rounding/metadata
	CSRBytes        int
	DenseBytes      int
	IdealBytes      int
}

// RelPerf is overlay performance relative to CSR (> 1: overlays faster).
func (r SpMVResult) RelPerf() float64 {
	if r.OverlayCycles == 0 {
		return 0
	}
	return float64(r.CSRCycles) / float64(r.OverlayCycles)
}

// RelMem is overlay memory relative to CSR (< 1: overlays smaller).
func (r SpMVResult) RelMem() float64 {
	if r.CSRBytes == 0 {
		return 0
	}
	return float64(r.OverlayBytes) / float64(r.CSRBytes)
}

// spmvConfig sizes a framework for a matrix of the given dense footprint.
func spmvConfig(denseBytes int) core.Config {
	cfg := core.DefaultConfig()
	pages := denseBytes/4096 + 8192
	cfg.MemoryPages = pages * 2
	return cfg
}

// simulateTrace runs one trace to completion on a fresh core and returns
// the cycles it took.
func simulateTrace(f *core.Framework, proc *vm.Process, trace cpu.Trace) (uint64, error) {
	port := f.NewPort()
	c := cpu.New(f.Engine, port, proc.PID, trace)
	c.Run(0)
	f.Engine.Run()
	if c.Running() {
		return 0, fmt.Errorf("exp: SpMV trace never finished")
	}
	return uint64(c.Cycles()), nil
}

// spmvOperand returns the vector every SpMV simulation multiplies m by,
// and the dense product each representation's result is checked against.
func spmvOperand(m *sparse.Matrix) (x, want []float64) {
	x = make([]float64, m.Cols)
	for i := range x {
		x[i] = 1.0 + float64(i%7)
	}
	return x, m.MultiplyDense(x)
}

// RunSpMV measures one matrix under the overlay and CSR representations
// (and optionally the dense baseline), verifying along the way that all
// representations compute the same product. Each representation runs
// on its own framework built from scratch.
func RunSpMV(m *sparse.Matrix, withDense bool) (SpMVResult, error) {
	cfg := spmvConfig(m.DenseBytes())
	res := SpMVResult{Matrix: m.Name, L: m.L(), NNZ: m.NNZ(), IdealBytes: m.IdealBytes()}
	x, want := spmvOperand(m)

	o, cycles, err := runOverlay(cfg, m, x, want)
	if err != nil {
		return res, err
	}
	res.OverlayBytes = o.LineBytes()
	res.OverlaySegBytes = o.MemoryBytes()
	res.OverlayCycles = cycles

	c := sparse.NewCSR(m)
	if !vectorsEqual(want, c.Multiply(x)) {
		return res, fmt.Errorf("exp: CSR SpMV result diverges for %s", m.Name)
	}
	res.CSRBytes = c.MemoryBytes()
	if res.CSRCycles, err = runCSR(cfg, c); err != nil {
		return res, err
	}

	if withDense {
		res.DenseBytes = m.DenseBytes()
		if res.DenseCycles, err = runSweepDense(cfg, m); err != nil {
			return res, err
		}
	}
	return res, nil
}

// runOverlay maps m as an overlay on a framework built from cfg, checks
// the overlay product of x against want, and simulates one SpMV
// iteration.
func runOverlay(cfg core.Config, m *sparse.Matrix, x, want []float64) (*sparse.OverlayMatrix, uint64, error) {
	f, err := core.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	proc := f.VM.NewProcess()
	o, layout, err := sparse.MapOverlay(f, proc, m)
	if err != nil {
		return nil, 0, err
	}
	got, err := o.Multiply(x)
	if err != nil {
		return nil, 0, err
	}
	if !vectorsEqual(want, got) {
		return nil, 0, fmt.Errorf("exp: overlay SpMV result diverges for %s", m.Name)
	}
	trace, err := sparse.OverlayTrace(o, layout)
	if err != nil {
		return nil, 0, err
	}
	cycles, err := simulateTrace(f, proc, trace)
	return o, cycles, err
}

// runCSR maps c on a framework built from cfg and simulates one SpMV
// iteration.
func runCSR(cfg core.Config, c *sparse.CSR) (uint64, error) {
	f, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	proc := f.VM.NewProcess()
	layout, err := sparse.MapCSR(f, proc, c)
	if err != nil {
		return 0, err
	}
	return simulateTrace(f, proc, sparse.CSRTrace(c, layout))
}

func vectorsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

// RunFigure10Pool sweeps the matrix suite (limit ≤ 0 runs all 87) with
// one job per matrix fanned across the pool; each job builds its own
// matrix. The result order (ascending L, as in the paper's x-axis) is
// fixed by the suite, not by completion order.
func RunFigure10Pool(ctx context.Context, pool Pool, limit int, withDense bool) ([]SpMVResult, error) {
	return harness.Map(ctx, pool.opts("spmv"), suiteSubset(limit),
		func(_ context.Context, spec sparse.SuiteSpec, _ int) (SpMVResult, error) {
			return RunSpMV(spec.Build(), withDense)
		})
}

// PrintFigure10 renders the SpMV comparison (Figure 10) plus the paper's
// headline aggregates.
func PrintFigure10(w io.Writer, results []SpMVResult) {
	fmt.Fprintln(w, "Figure 10: SpMV with overlays, relative to CSR (x-axis sorted by L)")
	fmt.Fprintf(w, "%-18s %6s %8s %12s %12s\n", "matrix", "L", "nnz", "rel perf", "rel memory")
	wins := 0
	var winPerf, winMem float64
	for _, r := range results {
		marker := ""
		if r.RelPerf() > 1 {
			wins++
			winPerf += r.RelPerf()
			winMem += r.RelMem()
			marker = "  <- overlay wins"
		}
		fmt.Fprintf(w, "%-18s %6.2f %8d %12.2f %12.2f%s\n",
			r.Matrix, r.L, r.NNZ, r.RelPerf(), r.RelMem(), marker)
	}
	fmt.Fprintf(w, "\noverlay outperforms CSR on %d of %d matrices (paper: 34 of 87, all with L > 4.5)\n",
		wins, len(results))
	if wins > 0 {
		fmt.Fprintf(w, "on winning matrices: mean perf %.2fx, mean memory %.2fx of CSR (paper: +27%% perf, -8%% memory)\n",
			winPerf/float64(wins), winMem/float64(wins))
	}
	if len(results) > 1 {
		lo, hi := results[0], results[len(results)-1]
		fmt.Fprintf(w, "extremes: %s (L=%.2f) perf %.2fx mem %.2fx | %s (L=%.2f) perf %.2fx mem %.2fx\n",
			lo.Matrix, lo.L, lo.RelPerf(), lo.RelMem(),
			hi.Matrix, hi.L, hi.RelPerf(), hi.RelMem())
		fmt.Fprintln(w, "(paper extremes: L=1.09 -> 4.83x memory, 0.30x perf; L=8 -> 0.66x memory, 1.92x perf)")
	}
}
