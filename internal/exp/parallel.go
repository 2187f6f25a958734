package exp

// Parallelism plumbing: every suite/sweep runner fans its independent
// simulations through internal/harness. Each job builds its own
// framework (engine, memory system, seeded RNGs), so simulated metrics
// are bit-identical at any worker count; see DESIGN.md "Parallel
// experiments" for the determinism argument.

import (
	"io"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// Pool carries the fan-out settings every suite/sweep runner accepts:
// how many worker goroutines to use and where to report live progress.
type Pool struct {
	// Parallel is the worker count (0: GOMAXPROCS, 1: sequential).
	Parallel int

	// Progress, when non-nil, receives the harness's live
	// jobs-done/ETA line (typically stderr).
	Progress io.Writer

	// OnProgress, when non-nil, receives structured per-job completion
	// totals (done, total, failed) — the serve layer streams these to
	// clients as SSE events.
	OnProgress harness.ProgressFunc

	// Snap, when non-nil, receives the run's warm-state reuse tallies
	// (families built, forks resumed, warm-ups reused, warm-up time
	// saved).
	Snap *SnapshotStats

	// Snapshots, when non-nil, caches family snapshots across runs —
	// the serving layer wires one cache across jobs so repeated specs
	// with a common configuration family skip the warm-up entirely.
	// With a nil cache every run builds its own families.
	Snapshots *SnapshotCache

	// Epoch and Trace are CLI outputs of the fork runner, never part of
	// a job spec: the series sampling period in cycles (0 selects
	// sim.DefaultEpoch), and a log that, when non-nil, receives the
	// simulator events of every run.
	Epoch sim.Cycle
	Trace *sim.TraceLog
}

// opts builds the harness options for one labelled sweep.
func (p Pool) opts(label string) harness.Options {
	return harness.Options{
		Parallel:   p.Parallel,
		Progress:   p.Progress,
		OnProgress: p.OnProgress,
		Label:      label,
	}
}

// suiteSubset returns the suite's specs, evenly subsampled to limit
// entries (limit <= 0 keeps all 87) so the L range stays covered. The
// suite is already in ascending measured L, the x-axis order of
// Figures 10 and 11, so no matrix is built here: each job builds the
// one it measures.
func suiteSubset(limit int) []sparse.SuiteSpec {
	specs := sparse.SuiteSpecs()
	if limit > 0 && limit < len(specs) {
		sub := make([]sparse.SuiteSpec, 0, limit)
		for i := 0; i < limit; i++ {
			sub = append(sub, specs[i*len(specs)/limit])
		}
		specs = sub
	}
	return specs
}
