package exp

// The experiment registry: one descriptor per experiment. The CLI
// subcommand, the job spec's defaults, validation, CLIArgs and
// SpecFromArgs, and JobSpec.Run all derive from it, so adding an
// experiment takes one entry here.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// Experiment is one registered experiment: its subcommand name and
// summary, the flags it binds onto a JobSpec (with their defaults, help
// text and value checks), its run and its text report.
type Experiment struct {
	Name    string
	Summary string

	flags []specFlag

	// normalize, when set, gives a spec whose zero fields are already
	// filled its canonical form.
	normalize func(JobSpec) JobSpec

	// run executes a validated, normalized spec on the pool.
	run func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error)

	// Report prints the human-readable table of a normalized spec's export.
	Report func(w io.Writer, n JobSpec, ex *sim.Export)

	// Derived once, at init, from flags.
	fill     JobSpec // what each zero field normalizes to
	defaults JobSpec // the normalized spec of the bare subcommand
	bound    uint32  // bit i is set when a flag binds field i
}

const nonNegative = "must be >= 0"

// BackendUsage is the help text of every -backend flag.
var BackendUsage = fmt.Sprintf("translation backend: one of %s (default %s)",
	strings.Join(core.Backends(), ", "), core.DefaultBackend)

var (
	parallelFlag = specFlag{name: "parallel", def: 1, why: nonNegative,
		usage: "worker goroutines for independent simulations (0 = GOMAXPROCS)"}
	coldFlag = specFlag{name: "cold",
		usage: "disable warm-state snapshot reuse (results are bit-identical either way)"}
	backendFlag = specFlag{name: "backend", valid: core.ValidBackend, usage: BackendUsage}
)

// Experiments is the registry, in the order the CLI lists it.
var Experiments = []*Experiment{
	{
		Name:    "fork",
		Summary: "Figures 8 and 9: overlay-on-write vs copy-on-write",
		flags: []specFlag{
			{name: "warm", def: DefaultForkParams().WarmInstructions, min: 1, why: "need at least 1 instruction",
				usage: "warm-up instructions before the fork"},
			{name: "measure", def: DefaultForkParams().MeasureInstructions, min: 1, why: "need at least 1 instruction",
				usage: "instructions measured after the fork"},
			{name: "bench", usage: "run a single benchmark (default: all 15)", valid: knownBench},
			backendFlag, parallelFlag, coldFlag,
		},
		// The backend name joins the cache key, so the default is
		// spelled out.
		normalize: func(s JobSpec) JobSpec {
			if s.Backend == "" {
				s.Backend = core.DefaultBackend
			}
			return s
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			params := ForkParams{
				WarmInstructions:    n.Warm,
				MeasureInstructions: n.Measure,
				Backend:             ForkBackend(n.Backend),
				SeriesEpoch:         pool.Epoch,
				Trace:               pool.Trace,
			}
			// The export's config block shows the period, so a server's
			// 0 is spelled as the CLI's default.
			if params.SeriesEpoch == 0 {
				params.SeriesEpoch = sim.DefaultEpoch
			}
			var names []string
			if n.Bench != "" {
				names = []string{n.Bench}
			}
			results, err := RunForkSuitePool(ctx, pool, params, names)
			if err != nil {
				return nil, err
			}
			return forkOutput(params, results), nil
		},
		Report: func(w io.Writer, _ JobSpec, ex *sim.Export) {
			results := ex.Results.([]ForkResult)
			PrintFigure8(w, results)
			fmt.Fprintln(w)
			PrintFigure9(w, results)
		},
	},
	{
		Name:    "spmv",
		Summary: "Figure 10: SpMV with overlays vs CSR",
		flags: []specFlag{
			{name: "matrices", why: nonNegative, usage: "number of suite matrices to run (0 = all 87)"},
			{name: "dense", usage: "also run the dense baseline"},
			parallelFlag,
		},
		normalize: wholeSuite,
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, err := RunFigure10Pool(ctx, pool, n.Matrices, n.Dense)
			return output(n, results, err)
		},
		Report: func(w io.Writer, _ JobSpec, ex *sim.Export) {
			PrintFigure10(w, ex.Results.([]SpMVResult))
		},
	},
	{
		Name:    "linesize",
		Summary: "Figure 11: memory overhead vs mapping granularity",
		flags: []specFlag{
			{name: "matrices", why: nonNegative, usage: "number of suite matrices (0 = all 87)"},
			parallelFlag,
		},
		normalize: wholeSuite,
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, err := RunFigure11Pool(ctx, pool, n.Matrices)
			return output(n, results, err)
		},
		Report: func(w io.Writer, _ JobSpec, ex *sim.Export) {
			PrintFigure11(w, ex.Results.([]LineSizeResult))
		},
	},
	{
		Name:    "sweep",
		Summary: "§5.2 sparsity sweep: overlays vs dense",
		flags: []specFlag{
			{name: "points", def: 11, min: 2, why: "need at least 2 sweep points",
				usage: "sparsity levels between 0%% and 100%%"},
			{name: "rows", def: 256, min: 8, why: "need at least one cache line of values",
				usage: "matrix dimension"},
			parallelFlag,
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, err := RunSparsitySweepPool(ctx, pool, n.Points, n.Rows)
			return output(n, results, err)
		},
		Report: func(w io.Writer, _ JobSpec, ex *sim.Export) {
			PrintSweep(w, ex.Results.([]SweepResult))
		},
	},
	{
		Name:    "dualcore",
		Summary: "extension: page divergence with both processes running",
		flags:   []specFlag{parallelFlag},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, err := RunDualCorePool(ctx, pool)
			return output(n, results, err)
		},
		Report: func(w io.Writer, _ JobSpec, ex *sim.Export) {
			PrintDualCore(w, ex.Results.([]DualCoreResult))
		},
	},
	{
		Name:    "compare",
		Summary: "run the same workloads across translation backends (overlay, baseline, vbi, utopia)",
		flags: []specFlag{
			{name: "bench", def: DefaultCompareParams().Bench, usage: "fork benchmark each backend runs", valid: knownBench},
			// An empty -backend runs every backend.
			backendFlag,
			{name: "warm", def: DefaultCompareParams().Warm, usage: "warm-up instructions before the fork"},
			{name: "measure", def: DefaultCompareParams().Measure, usage: "instructions measured after the fork"},
			{name: "matrices", def: DefaultCompareParams().Matrices, why: nonNegative,
				usage: "SpMV suite matrices each backend runs"},
			parallelFlag, coldFlag,
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			params := CompareParams{Bench: n.Bench, Warm: n.Warm, Measure: n.Measure, Matrices: n.Matrices}
			if n.Backend != "" {
				params.Backends = []string{n.Backend}
			}
			report, err := RunComparePool(ctx, pool, params)
			if err != nil {
				return nil, err
			}
			return &JobOutput{Export: CompareExport(params, report)}, nil
		},
		Report: func(w io.Writer, _ JobSpec, ex *sim.Export) {
			PrintCompare(w, ex.Results.(*CompareReport))
		},
	},
	{
		Name:    "omsstress",
		Summary: "multi-tenant OMS buffer-manager churn: cooling eviction and beyond-DRAM spill",
		flags: []specFlag{
			{name: "tenants", def: DefaultOMSStressParams().Tenants, min: 1, why: "need at least 1",
				usage: "concurrent tenant stores"},
			{name: "ops", def: DefaultOMSStressParams().Ops, min: 1, why: "need at least 1",
				usage: "churn operations per tenant"},
			{name: "segments", def: DefaultOMSStressParams().Segments, min: 1, why: "need at least 1",
				usage: "overlay segments per tenant (working-set bound)"},
			{name: "oms-capacity", json: "oms_capacity", def: DefaultOMSStressParams().Capacity, min: -1,
				why:   "want a frame count, 0 for the default, or -1 for unlimited",
				usage: "frame budget per tenant store (-1 = unlimited, no eviction)"},
			{name: "oms-spill", json: "nospill", negate: true,
				usage: "evict cold segments to the modeled spill tier"},
			parallelFlag,
		},
		run: func(ctx context.Context, pool Pool, n JobSpec) (*JobOutput, error) {
			results, stats, err := RunOMSStressPool(ctx, pool, omsStressParams(n))
			out, err := output(n, results, err)
			if out != nil {
				out.Stats = stats
			}
			return out, err
		},
		Report: func(w io.Writer, n JobSpec, ex *sim.Export) {
			PrintOMSStress(w, omsStressParams(n), ex.Results.([]OMSStressResult))
		},
	},
}

func init() {
	for _, e := range Experiments {
		for i := range e.flags {
			f := &e.flags[i]
			if f.json == "" {
				f.json = f.name
			}
			f.field = slices.Index(fieldNames[:], f.json)
			e.bound |= 1 << f.field
		}
		bare := JobSpec{Experiment: e.Name}
		e.Bind(flag.NewFlagSet(e.Name, flag.ContinueOnError), &bare)
		e.fill = bare
		e.fill.Parallel = 0 // a spec's 0 is the pool default, not the CLI's 1
		e.defaults = bare.Normalized()
	}
}

// lookup returns the named experiment, or nil.
func lookup(name string) *Experiment {
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Bind registers the experiment's flags on fs, bound onto s, with their
// CLI defaults and help text.
func (e *Experiment) Bind(fs *flag.FlagSet, s *JobSpec) {
	fields := s.fields()
	for i := range e.flags {
		e.flags[i].bind(fs, fields[e.flags[i].field])
	}
}

// output wraps a runner's results in an export that carries only them.
func output[T any](n JobSpec, results T, err error) (*JobOutput, error) {
	if err != nil {
		return nil, err
	}
	ex := sim.NewExport(n.Experiment)
	ex.Results = results
	return &JobOutput{Export: ex}, nil
}

// wholeSuite gives every matrix count from the suite size up the
// canonical form 0, since all of them run the whole suite and so share
// one cache key. Only spmv and linesize fold: compare's 0 means its
// default subset.
func wholeSuite(s JobSpec) JobSpec {
	if s.Matrices >= sparse.SuiteSize {
		s.Matrices = 0
	}
	return s
}

func knownBench(name string) error {
	_, err := workload.ByName(name)
	return err
}

// omsStressParams maps a normalized omsstress spec onto the runner's
// parameters; the spec's -1 (unlimited) is the runner's capacity 0.
func omsStressParams(n JobSpec) OMSStressParams {
	return OMSStressParams{Tenants: n.Tenants, Ops: n.Ops, Segments: n.Segments,
		Capacity: max(n.OMSCapacity, 0), Spill: !n.NoSpill}
}
