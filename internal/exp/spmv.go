package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

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

// pristineFamily is a configuration family's framework capture taken
// right after construction — the engine has never run, so the capture
// is trivially quiescent. Forking it is bit-equivalent to building the
// same config from scratch but far cheaper: the fork shares the zeroed
// memory frames copy-on-write instead of re-allocating them.
type pristineFamily struct {
	snap   *core.Snapshot
	warmUS uint64 // wall clock the build+capture cost (≈ saved per reuse)

	// resumes counts forks taken from this family over its lifetime;
	// every resume past the first skipped a framework build that the
	// cold path would have run.
	resumes atomic.Uint64
}

// warmPristineFamily builds one framework of the given config and
// captures it ("fork.snapshot" span).
func warmPristineFamily(ctx context.Context, key string, cfg core.Config) (*pristineFamily, error) {
	start := time.Now()
	f, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	sp := snapSpan(ctx, "fork.snapshot", key)
	fam := &pristineFamily{snap: f.Snapshot()}
	sp.End()
	fam.warmUS = uint64(time.Since(start).Microseconds())
	return fam, nil
}

// fork resumes one framework from the family ("fork.resume" span). The
// returned func tallies the pool's reuse stats; call it once the
// simulation completes, when the copy-on-write byte count is final.
func (fam *pristineFamily) fork(ctx context.Context, pool Pool, key string) (*core.Framework, func(*core.Framework)) {
	sp := snapSpan(ctx, "fork.resume", key)
	f := core.NewFromSnapshot(fam.snap)
	sp.End()
	done := func(f *core.Framework) {
		pool.Snap.addFork(f.Mem.BytesCopied(), fam.resumes.Add(1) > 1, fam.warmUS)
	}
	return f, done
}

// simulateTrace runs one trace to completion on a fresh core and returns
// the cycles it took.
func simulateTrace(f *core.Framework, proc *vm.Process, trace cpu.Trace) (uint64, error) {
	port := f.NewPort()
	c := cpu.New(f.Engine, port, proc.PID, trace)
	done := false
	c.Run(0, func() { done = true })
	f.Engine.Run()
	if !done {
		return 0, fmt.Errorf("exp: SpMV trace never finished")
	}
	return uint64(c.Cycles()), nil
}

// RunSpMV measures one matrix under the overlay and CSR representations
// (and optionally the dense baseline), verifying along the way that all
// representations compute the same product. Every representation runs
// on a framework built from scratch; RunFigure10Pool's default path
// measures the same thing on frameworks forked from a shared pristine
// capture.
func RunSpMV(m *sparse.Matrix, withDense bool) (SpMVResult, error) {
	return runSpMV(func() (*core.Framework, func(*core.Framework), error) {
		f, err := core.New(spmvConfig(m.DenseBytes()))
		return f, nil, err
	}, m, withDense)
}

// runSpMV measures one matrix with each representation simulated on its
// own framework drawn from newFramework. The optional func returned
// alongside a framework is called after that representation's
// simulation completes (the snapshot path tallies reuse stats there).
func runSpMV(newFramework func() (*core.Framework, func(*core.Framework), error), m *sparse.Matrix, withDense bool) (SpMVResult, error) {
	res := SpMVResult{Matrix: m.Name, L: m.L(), NNZ: m.NNZ(), IdealBytes: m.IdealBytes()}

	// Functional cross-check.
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1.0 + float64(i%7)
	}
	want := m.MultiplyDense(x)

	// Overlay representation.
	{
		f, done, err := newFramework()
		if err != nil {
			return res, err
		}
		proc := f.VM.NewProcess()
		o, layout, err := sparse.MapOverlay(f, proc, m)
		if err != nil {
			return res, err
		}
		got, err := o.Multiply(x)
		if err != nil {
			return res, err
		}
		if !vectorsEqual(want, got) {
			return res, fmt.Errorf("exp: overlay SpMV result diverges for %s", m.Name)
		}
		trace, err := sparse.OverlayTrace(o, layout)
		if err != nil {
			return res, err
		}
		res.OverlayBytes = o.LineBytes()
		res.OverlaySegBytes = o.MemoryBytes()
		res.OverlayCycles, err = simulateTrace(f, proc, trace)
		if err != nil {
			return res, err
		}
		if done != nil {
			done(f)
		}
	}

	// CSR representation.
	{
		c := sparse.NewCSR(m)
		if !vectorsEqual(want, c.Multiply(x)) {
			return res, fmt.Errorf("exp: CSR SpMV result diverges for %s", m.Name)
		}
		f, done, err := newFramework()
		if err != nil {
			return res, err
		}
		proc := f.VM.NewProcess()
		layout, err := sparse.MapCSR(f, proc, c)
		if err != nil {
			return res, err
		}
		res.CSRBytes = c.MemoryBytes()
		res.CSRCycles, err = simulateTrace(f, proc, sparse.CSRTrace(c, layout))
		if err != nil {
			return res, err
		}
		if done != nil {
			done(f)
		}
	}

	if withDense {
		f, done, err := newFramework()
		if err != nil {
			return res, err
		}
		proc := f.VM.NewProcess()
		layout, err := sparse.MapDense(f, proc, m)
		if err != nil {
			return res, err
		}
		res.DenseBytes = m.DenseBytes()
		res.DenseCycles, err = simulateTrace(f, proc, sparse.DenseTrace(m, layout))
		if err != nil {
			return res, err
		}
		if done != nil {
			done(f)
		}
	}
	return res, nil
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
//
// By default every simulation forks its framework from a pristine
// capture shared by all matrices of the same footprint (the whole suite
// is one configuration family today: every matrix is 2048×2048), built
// lazily by the first job to need it. Cycle counts are bit-identical to
// the cold path; pool.Cold builds every framework from scratch instead.
func RunFigure10Pool(ctx context.Context, pool Pool, limit int, withDense bool) ([]SpMVResult, error) {
	specs := suiteSubset(limit)
	if pool.Cold {
		return harness.Map(ctx, pool.opts("spmv"), specs,
			func(_ context.Context, spec sparse.SuiteSpec, _ int) (SpMVResult, error) {
				return RunSpMV(spec.Build(), withDense)
			})
	}
	snaps := pool.Snapshots
	if snaps == nil {
		snaps = NewSnapshotCache(8) // run-local: one entry per distinct footprint
	}
	return harness.Map(ctx, pool.opts("spmv"), specs,
		func(jobCtx context.Context, spec sparse.SuiteSpec, _ int) (SpMVResult, error) {
			m := spec.Build()
			cfg := spmvConfig(m.DenseBytes())
			key := fmt.Sprintf("spmv/pages=%d", cfg.MemoryPages)
			v, err := snaps.getOrBuild(key, func() (any, error) {
				pool.Snap.addFamily()
				return warmPristineFamily(jobCtx, key, cfg)
			})
			if err != nil {
				return SpMVResult{}, err
			}
			fam := v.(*pristineFamily)
			return runSpMV(func() (*core.Framework, func(*core.Framework), error) {
				f, done := fam.fork(jobCtx, pool, key)
				return f, done, nil
			}, m, withDense)
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
