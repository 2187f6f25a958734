package exp

// `overlaysim compare`: the cross-backend experiment. The same two
// workloads — a fork divergence window and an SpMV sweep subset — run
// under every registered translation backend, and the report puts the
// per-backend cycles, TLB/OMT behaviour, and memory overhead side by
// side. Backends fan across the pool like any other suite (one job per
// backend), resume their fork legs from warm-state snapshots (family
// keys are backend-qualified), and are bit-identical at any worker
// count.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// CompareParams selects what one compare run measures. The zero value
// normalises to every registered backend, the default benchmark, the
// quick fork window, and a small SpMV subset.
type CompareParams struct {
	// Backends are the translation backends to run (empty = all
	// registered, in sorted order).
	Backends []string `json:"backends"`

	// Bench is the fork benchmark each backend runs.
	Bench string `json:"bench"`

	// Warm and Measure size the fork window in instructions.
	Warm    uint64 `json:"warm"`
	Measure uint64 `json:"measure"`

	// Matrices is the SpMV suite subset each backend runs.
	Matrices int `json:"matrices"`
}

// DefaultCompareParams is the quick cross-backend matrix: every
// registered backend over one write-heavy benchmark and four matrices.
func DefaultCompareParams() CompareParams {
	q := QuickForkParams()
	return CompareParams{
		Bench:    "mcf",
		Warm:     q.WarmInstructions,
		Measure:  q.MeasureInstructions,
		Matrices: 4,
	}
}

// normalize fills zero fields with the defaults.
func (p CompareParams) normalize() CompareParams {
	d := DefaultCompareParams()
	if len(p.Backends) == 0 {
		p.Backends = core.Backends()
	}
	if p.Bench == "" {
		p.Bench = d.Bench
	}
	if p.Warm == 0 {
		p.Warm = d.Warm
	}
	if p.Measure == 0 {
		p.Measure = d.Measure
	}
	if p.Matrices == 0 {
		p.Matrices = d.Matrices
	}
	return p
}

// CompareForkLeg is one backend's fork measurement: the backend's
// native mechanism (overlay-on-write for overlay, trap-free remap for
// VBI, conventional copy-on-write otherwise) measured over the
// post-fork window.
type CompareForkLeg struct {
	Bench      string  `json:"bench"`
	Mechanism  string  `json:"mechanism"` // "oow" (overlay) or "cow"
	Cycles     uint64  `json:"cycles"`
	CPI        float64 `json:"cpi"`
	AddedBytes int     `json:"added_bytes"`
	PageCopies uint64  `json:"page_copies"`
	Overlaying uint64  `json:"overlaying_writes"`
}

// CompareSpMVLeg is one backend's SpMV measurement: total cycles over
// the matrix subset under the CSR representation (which every backend
// can run), plus the overlay representation's total when the backend
// supports it.
type CompareSpMVLeg struct {
	Matrices      int    `json:"matrices"`
	CSRCycles     uint64 `json:"csr_cycles"`
	OverlayCycles uint64 `json:"overlay_cycles,omitempty"`
}

// CompareBackendResult is one backend's row of the cross-backend
// report.
type CompareBackendResult struct {
	Backend string         `json:"backend"`
	Fork    CompareForkLeg `json:"fork"`
	SpMV    CompareSpMVLeg `json:"spmv"`

	// MetadataBytes is the backend's translation-metadata footprint
	// (page tables, OMT, MTL, RestSeg tags) probed after mapping and
	// forking the benchmark's footprint.
	MetadataBytes int `json:"metadata_bytes"`

	// Counters are the fork leg's translation-relevant counters (tlb.*,
	// omt.*, core.*, plus the backend's own namespace).
	Counters map[string]uint64 `json:"counters"`
}

// CompareReport is the cross-backend report `overlaysim compare` emits
// (docs/schema/compare.schema.json describes the JSON form).
type CompareReport struct {
	Bench    string                 `json:"bench"`
	Warm     uint64                 `json:"warm"`
	Measure  uint64                 `json:"measure"`
	Matrices int                    `json:"matrices"`
	Backends []CompareBackendResult `json:"backends"`
}

// compareCounterPrefixes selects which registry counters each backend's
// report row carries.
var compareCounterPrefixes = []string{"tlb.", "omt.", "core.", "vbi.", "utopia."}

// nativeOverlayMode reports whether the backend's native fork mechanism
// is overlay-on-write. Only the overlay backend has one; every rival
// forks copy-on-write (the overlayMode argument is a no-op for them).
func nativeOverlayMode(backend string) bool {
	return backendName(backend) == "overlay"
}

// RunComparePool measures every requested backend, one pool job per
// backend. Each job's work nests under a "compare.<backend>" span, so
// traces and span summaries name the backend they timed.
func RunComparePool(ctx context.Context, pool Pool, params CompareParams) (*CompareReport, error) {
	params = params.normalize()
	spec, err := workload.ByName(params.Bench)
	if err != nil {
		return nil, err
	}
	for i, b := range params.Backends {
		if err := core.ValidBackend(b); err != nil {
			return nil, err
		}
		params.Backends[i] = backendName(b)
	}
	results, err := harness.Map(ctx, pool.opts("compare"), params.Backends,
		func(jobCtx context.Context, backend string, _ int) (CompareBackendResult, error) {
			r, err := runBackendCompare(jobCtx, pool, params, spec, backend)
			if err != nil {
				return CompareBackendResult{}, fmt.Errorf("%s: %w", backend, err)
			}
			return r, nil
		})
	if err != nil {
		return nil, err
	}
	return &CompareReport{
		Bench:    params.Bench,
		Warm:     params.Warm,
		Measure:  params.Measure,
		Matrices: params.Matrices,
		Backends: results,
	}, nil
}

// runBackendCompare measures one backend: the fork leg, the SpMV leg,
// and the metadata probe, all under one "compare.<backend>" span.
func runBackendCompare(ctx context.Context, pool Pool, params CompareParams, spec workload.Spec, backend string) (CompareBackendResult, error) {
	ctx, span := obs.StartSpan(ctx, "compare."+backend)
	if span != nil {
		span.SetAttr("backend", backend)
		span.SetAttr("bench", spec.Name)
	}
	defer span.End()

	res := CompareBackendResult{Backend: backend}

	fp := ForkParams{
		WarmInstructions:    params.Warm,
		MeasureInstructions: params.Measure,
		Backend:             backend,
		SeriesEpoch:         sim.DefaultEpoch,
	}
	overlayMode := nativeOverlayMode(backend)
	mech, err := compareForkLeg(ctx, pool, spec, fp, overlayMode)
	if err != nil {
		return res, fmt.Errorf("fork leg: %w", err)
	}
	res.Fork = CompareForkLeg{
		Bench:      spec.Name,
		Mechanism:  mechName(overlayMode),
		Cycles:     mech.Cycles,
		CPI:        mech.CPI,
		AddedBytes: mech.AddedBytes,
		PageCopies: mech.PageCopies,
		Overlaying: mech.Overlaying,
	}
	res.Counters = compareCounters(mech.Stats)

	res.SpMV, err = compareSpMVLeg(backend, params.Matrices)
	if err != nil {
		return res, fmt.Errorf("spmv leg: %w", err)
	}

	res.MetadataBytes, err = metadataProbe(backend, spec)
	if err != nil {
		return res, fmt.Errorf("metadata probe: %w", err)
	}
	return res, nil
}

// compareForkLeg measures the fork window under one backend, resumed
// from the backend's family. The family key is backend-qualified, so
// backends never share warm state.
func compareForkLeg(ctx context.Context, pool Pool, spec workload.Spec, fp ForkParams, overlayMode bool) (MechanismResult, error) {
	fam, err := cachedFamily(ctx, pool, spec, fp)
	if err != nil {
		return MechanismResult{}, err
	}
	return resumeMechanism(ctx, pool, fam, fp, overlayMode)
}

// compareSpMVLeg runs the matrix subset under one backend. The CSR
// representation maps to regular pages and runs everywhere; the overlay
// representation needs the Overlay Memory Store, so only the overlay
// backend measures it.
func compareSpMVLeg(backend string, limit int) (CompareSpMVLeg, error) {
	specs := suiteSubset(limit)
	leg := CompareSpMVLeg{Matrices: len(specs)}
	for _, spec := range specs {
		m := spec.Build()
		cfg := spmvConfig(m.DenseBytes())
		cfg.Backend = backend
		cycles, err := runCSR(cfg, sparse.NewCSR(m))
		if err != nil {
			return leg, err
		}
		leg.CSRCycles += cycles

		if backend == "overlay" {
			x, want := spmvOperand(m)
			_, cycles, err := runOverlay(cfg, m, x, want)
			if err != nil {
				return leg, err
			}
			leg.OverlayCycles += cycles
		}
	}
	return leg, nil
}

// metadataProbe maps the benchmark's footprint under one backend,
// forks, and reads the backend's translation-metadata accounting. The
// probe is untimed (nothing runs on the engine), so it adds no
// simulated work to the report.
func metadataProbe(backend string, spec workload.Spec) (int, error) {
	f, err := core.New(ForkConfig(spec, backend))
	if err != nil {
		return 0, err
	}
	proc := f.VM.NewProcess()
	if err := spec.MapFootprint(f, proc); err != nil {
		return 0, err
	}
	f.Fork(proc, nativeOverlayMode(backend))
	return f.MetadataBytes(), nil
}

// compareCounters extracts the translation-relevant counters from a
// run's registry, in sorted order (the map is re-marshalled sorted by
// encoding/json anyway; sorting here keeps iteration deterministic for
// callers that range).
func compareCounters(stats *sim.Stats) map[string]uint64 {
	if stats == nil {
		return nil
	}
	names := stats.Names()
	sort.Strings(names)
	out := make(map[string]uint64)
	for _, n := range names {
		for _, p := range compareCounterPrefixes {
			if strings.HasPrefix(n, p) {
				out[n] = stats.Get(n)
				break
			}
		}
	}
	return out
}

// CompareExport bundles a compare run into the machine-readable export.
func CompareExport(params CompareParams, report *CompareReport) *sim.Export {
	ex := sim.NewExport("compare")
	ex.Config = params.normalize()
	ex.Results = report
	return ex
}

// PrintCompare renders the human-readable cross-backend table.
func PrintCompare(w io.Writer, r *CompareReport) {
	fmt.Fprintf(w, "Cross-backend comparison: fork(%s, warm=%d, measure=%d) + spmv(%d matrices)\n",
		r.Bench, r.Warm, r.Measure, r.Matrices)
	fmt.Fprintf(w, "%-10s %-5s %12s %8s %12s %14s %14s %12s\n",
		"backend", "mech", "fork cycles", "cpi", "added KB", "spmv csr cyc", "spmv ovl cyc", "metadata KB")
	for _, b := range r.Backends {
		ovl := "-"
		if b.SpMV.OverlayCycles != 0 {
			ovl = fmt.Sprintf("%d", b.SpMV.OverlayCycles)
		}
		fmt.Fprintf(w, "%-10s %-5s %12d %8.3f %12.1f %14d %14s %12.1f\n",
			b.Backend, b.Fork.Mechanism, b.Fork.Cycles, b.Fork.CPI,
			float64(b.Fork.AddedBytes)/1024, b.SpMV.CSRCycles, ovl,
			float64(b.MetadataBytes)/1024)
	}
	var base *CompareBackendResult
	for i := range r.Backends {
		if r.Backends[i].Backend == "baseline" {
			base = &r.Backends[i]
			break
		}
	}
	if base != nil && base.Fork.Cycles > 0 {
		fmt.Fprintln(w, "\nrelative to baseline (fork cycles; < 1.00 is faster):")
		for _, b := range r.Backends {
			if b.Backend == "baseline" || b.Fork.Cycles == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-10s %.3fx cycles, %+d KB metadata\n",
				b.Backend, float64(b.Fork.Cycles)/float64(base.Fork.Cycles),
				(b.MetadataBytes-base.MetadataBytes)/1024)
		}
	}
}
