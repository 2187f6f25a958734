package exp

// This file defines the canonical job spec: the JSON document `overlaysim
// serve` accepts over HTTP, validated against the same flag tables the
// CLI subcommands expose. A spec round-trips to a CLI invocation
// (CLIArgs ↔ SpecFromArgs), normalises to the CLI's defaults, and hashes
// to a cache key that identifies the simulated result — the simulator is
// deterministic and the harness is bit-identical at any worker count, so
// two specs with the same key have the same result by construction.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// Experiments lists the experiment names a JobSpec may carry, in the
// order the CLI documents them.
var Experiments = []string{"fork", "spmv", "linesize", "sweep", "dualcore", "compare", "omsstress"}

// JobSpec is one experiment request in canonical form: the experiment
// name plus exactly the flags the matching CLI subcommand accepts.
// Fields that do not apply to the chosen experiment must be zero — a
// spec carrying them is rejected, the same way the CLI rejects an
// unknown flag.
type JobSpec struct {
	// Experiment selects the runner: fork, spmv, linesize, sweep or
	// dualcore.
	Experiment string `json:"experiment"`

	// Parallel is the harness worker count (0 = GOMAXPROCS). It is an
	// execution hint only: simulated metrics are bit-identical at any
	// worker count, so Parallel is excluded from the cache key.
	Parallel int `json:"parallel,omitempty"`

	// Cold disables warm-state snapshot reuse for this run. Like
	// Parallel it is an execution hint only — results are bit-identical
	// either way — so it too is excluded from the cache key.
	Cold bool `json:"cold,omitempty"`

	// Bench restricts a fork run to one benchmark (empty = all 15), or
	// selects the compare experiment's fork benchmark (empty = mcf).
	Bench string `json:"bench,omitempty"`

	// Backend selects the translation backend. For fork it is the
	// backend simulated (empty = overlay, filled in by Normalized so the
	// backend name joins the cache key); for compare it restricts the
	// run to one backend (empty = all registered).
	Backend string `json:"backend,omitempty"`

	// Warm and Measure size the fork window in instructions
	// (0 = the CLI defaults).
	Warm    uint64 `json:"warm,omitempty"`
	Measure uint64 `json:"measure,omitempty"`

	// Matrices limits the spmv/linesize suite (0 or any value >= 87 =
	// all 87) or sizes the compare experiment's SpMV subset (0 = 4).
	Matrices int `json:"matrices,omitempty"`

	// Dense also runs the spmv dense baseline.
	Dense bool `json:"dense,omitempty"`

	// Points and Rows size the sparsity sweep (0 = the CLI defaults:
	// 11 points, 256 rows).
	Points int `json:"points,omitempty"`
	Rows   int `json:"rows,omitempty"`

	// Tenants, Ops and Segments size the omsstress churn workload
	// (0 = the CLI defaults: 4 tenants, 24000 ops, 192 segments).
	Tenants  int `json:"tenants,omitempty"`
	Ops      int `json:"ops,omitempty"`
	Segments int `json:"segments,omitempty"`

	// OMSCapacity is each tenant store's frame budget for omsstress:
	// 0 = the CLI default (32), -1 = unlimited (no eviction).
	OMSCapacity int `json:"oms_capacity,omitempty"`

	// NoSpill disables the beyond-DRAM spill tier for omsstress; a
	// capped store then grants overflow frames and counts overruns
	// instead of evicting.
	NoSpill bool `json:"nospill,omitempty"`

	// Shared routes omsstress tenants through one lock-striped shared
	// store. Like Parallel it is an execution hint only — per-tenant op
	// streams are private per stripe, so simulated metrics are
	// bit-identical either way — and is excluded from the cache key.
	Shared bool `json:"shared,omitempty"`
}

// JobOutput is what running a spec produces: the same schema-versioned
// export the CLI's -json flag writes, plus the run's merged stats
// registry when the experiment exposes one (fork does; the analytic and
// figure-only runners do not), so a serving layer can aggregate
// simulator telemetry across jobs.
type JobOutput struct {
	Export *sim.Export
	Stats  *sim.Stats
}

// ValidationError collects every problem found in a job spec so clients
// see all of them at once, not one per round trip.
type ValidationError struct {
	Problems []string
}

func (e *ValidationError) Error() string {
	return "invalid job spec: " + strings.Join(e.Problems, "; ")
}

// ParseJobSpec decodes and validates one JSON job spec. Unknown fields
// are rejected — the spec is a flag table, and the CLI rejects unknown
// flags too.
func ParseJobSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return JobSpec{}, &ValidationError{Problems: []string{err.Error()}}
	}
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// specDefaults returns the CLI defaults for the spec's experiment.
func specDefaults(experiment string) JobSpec {
	d := JobSpec{Experiment: experiment}
	switch experiment {
	case "fork":
		p := DefaultForkParams()
		d.Warm, d.Measure = p.WarmInstructions, p.MeasureInstructions
		d.Backend = core.DefaultBackend
	case "sweep":
		d.Points, d.Rows = 11, 256
	case "compare":
		p := DefaultCompareParams()
		d.Bench = p.Bench
		d.Warm, d.Measure = p.Warm, p.Measure
		d.Matrices = p.Matrices
	case "omsstress":
		p := DefaultOMSStressParams()
		d.Tenants, d.Ops, d.Segments = p.Tenants, p.Ops, p.Segments
		d.OMSCapacity = p.Capacity
	}
	return d
}

// Normalized fills zero fields with the CLI defaults for the spec's
// experiment and folds a whole-suite spmv/linesize matrix count to 0.
// It does not validate.
func (s JobSpec) Normalized() JobSpec {
	d := specDefaults(s.Experiment)
	if s.Bench == "" {
		s.Bench = d.Bench
	}
	if s.Backend == "" {
		s.Backend = d.Backend
	}
	if s.Warm == 0 {
		s.Warm = d.Warm
	}
	if s.Measure == 0 {
		s.Measure = d.Measure
	}
	if s.Matrices == 0 {
		s.Matrices = d.Matrices
	}
	// Any count from the suite size up runs the whole suite, as 0 does,
	// so it takes the same canonical form and cache key. Not for
	// compare, whose 0 means its default subset.
	if (s.Experiment == "spmv" || s.Experiment == "linesize") && s.Matrices >= sparse.SuiteSize {
		s.Matrices = 0
	}
	if s.Points == 0 {
		s.Points = d.Points
	}
	if s.Rows == 0 {
		s.Rows = d.Rows
	}
	if s.Tenants == 0 {
		s.Tenants = d.Tenants
	}
	if s.Ops == 0 {
		s.Ops = d.Ops
	}
	if s.Segments == 0 {
		s.Segments = d.Segments
	}
	if s.OMSCapacity == 0 {
		s.OMSCapacity = d.OMSCapacity
	}
	return s
}

// Validate checks the spec against its experiment's flag table: the
// experiment must exist, inapplicable fields must be zero, and value
// constraints mirror the CLI's usage errors exactly.
func (s JobSpec) Validate() error {
	var problems []string
	known := false
	for _, e := range Experiments {
		if s.Experiment == e {
			known = true
			break
		}
	}
	if !known {
		problems = append(problems, fmt.Sprintf("unknown experiment %q (want one of %s)",
			s.Experiment, strings.Join(Experiments, ", ")))
		return &ValidationError{Problems: problems}
	}

	reject := func(field string, set bool) {
		if set {
			problems = append(problems,
				fmt.Sprintf("field %q does not apply to experiment %q", field, s.Experiment))
		}
	}
	switch s.Experiment {
	case "fork":
		reject("matrices", s.Matrices != 0)
		reject("dense", s.Dense)
		reject("points", s.Points != 0)
		reject("rows", s.Rows != 0)
		if s.Bench != "" {
			if _, err := workload.ByName(s.Bench); err != nil {
				problems = append(problems, err.Error())
			}
		}
		if err := core.ValidBackend(s.Backend); err != nil {
			problems = append(problems, err.Error())
		}
	case "spmv":
		reject("bench", s.Bench != "")
		reject("backend", s.Backend != "")
		reject("warm", s.Warm != 0)
		reject("measure", s.Measure != 0)
		reject("points", s.Points != 0)
		reject("rows", s.Rows != 0)
	case "linesize":
		reject("bench", s.Bench != "")
		reject("backend", s.Backend != "")
		reject("warm", s.Warm != 0)
		reject("measure", s.Measure != 0)
		reject("dense", s.Dense)
		reject("points", s.Points != 0)
		reject("rows", s.Rows != 0)
	case "sweep":
		reject("bench", s.Bench != "")
		reject("backend", s.Backend != "")
		reject("warm", s.Warm != 0)
		reject("measure", s.Measure != 0)
		reject("matrices", s.Matrices != 0)
		reject("dense", s.Dense)
	case "dualcore":
		reject("bench", s.Bench != "")
		reject("backend", s.Backend != "")
		reject("warm", s.Warm != 0)
		reject("measure", s.Measure != 0)
		reject("matrices", s.Matrices != 0)
		reject("dense", s.Dense)
		reject("points", s.Points != 0)
		reject("rows", s.Rows != 0)
		reject("cold", s.Cold)
	case "compare":
		reject("dense", s.Dense)
		reject("points", s.Points != 0)
		reject("rows", s.Rows != 0)
		if s.Bench != "" {
			if _, err := workload.ByName(s.Bench); err != nil {
				problems = append(problems, err.Error())
			}
		}
		if err := core.ValidBackend(s.Backend); err != nil {
			problems = append(problems, err.Error())
		}
	case "omsstress":
		reject("bench", s.Bench != "")
		reject("backend", s.Backend != "")
		reject("warm", s.Warm != 0)
		reject("measure", s.Measure != 0)
		reject("matrices", s.Matrices != 0)
		reject("dense", s.Dense)
		reject("points", s.Points != 0)
		reject("rows", s.Rows != 0)
		reject("cold", s.Cold)
	}
	if s.Experiment != "omsstress" {
		reject("tenants", s.Tenants != 0)
		reject("ops", s.Ops != 0)
		reject("segments", s.Segments != 0)
		reject("oms_capacity", s.OMSCapacity != 0)
		reject("nospill", s.NoSpill)
		reject("shared", s.Shared)
	}

	if s.Parallel < 0 {
		problems = append(problems, fmt.Sprintf("invalid parallel %d: must be >= 0", s.Parallel))
	}
	if s.Matrices < 0 {
		problems = append(problems, fmt.Sprintf("invalid matrices %d: must be >= 0", s.Matrices))
	}
	n := s.Normalized()
	if s.Experiment == "sweep" {
		if n.Points < 2 {
			problems = append(problems, fmt.Sprintf("invalid points %d: need at least 2 sweep points", n.Points))
		}
		if n.Rows < 8 {
			problems = append(problems, fmt.Sprintf("invalid rows %d: need at least one cache line of values", n.Rows))
		}
	}
	if s.Experiment == "omsstress" {
		if n.Tenants < 1 {
			problems = append(problems, fmt.Sprintf("invalid tenants %d: need at least 1", n.Tenants))
		}
		if n.Ops < 1 {
			problems = append(problems, fmt.Sprintf("invalid ops %d: need at least 1", n.Ops))
		}
		if n.Segments < 1 {
			problems = append(problems, fmt.Sprintf("invalid segments %d: need at least 1", n.Segments))
		}
		if n.OMSCapacity < -1 {
			problems = append(problems, fmt.Sprintf("invalid oms_capacity %d: want a frame count, 0 for the default, or -1 for unlimited", n.OMSCapacity))
		}
	}
	if len(problems) > 0 {
		return &ValidationError{Problems: problems}
	}
	return nil
}

// CanonicalJSON renders the result-identity form of the spec: normalized
// (defaults filled in) with the execution-only Parallel hint stripped,
// marshalled with the fixed field order of the struct. Two specs with
// equal CanonicalJSON simulate the same thing.
func (s JobSpec) CanonicalJSON() []byte {
	c := s.Normalized()
	c.Parallel = 0
	c.Cold = false
	c.Shared = false
	b, err := json.Marshal(c)
	if err != nil {
		// JobSpec is a plain struct of marshalable fields; Marshal
		// cannot fail on it.
		panic(err)
	}
	return b
}

// Key is the result cache key: the hex SHA-256 of CanonicalJSON.
func (s JobSpec) Key() string {
	sum := sha256.Sum256(s.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// CLIArgs renders the spec as the equivalent overlaysim invocation —
// subcommand first, then one flag per non-default field. Feeding the
// result back through SpecFromArgs yields the normalized spec; running
// it through the CLI with -json yields a byte-identical export.
func (s JobSpec) CLIArgs() []string {
	args := []string{s.Experiment}
	d := specDefaults(s.Experiment)
	n := s.Normalized()
	switch s.Experiment {
	case "fork":
		if n.Bench != "" {
			args = append(args, "-bench="+n.Bench)
		}
		if n.Backend != d.Backend {
			args = append(args, "-backend="+n.Backend)
		}
		if n.Warm != d.Warm {
			args = append(args, fmt.Sprintf("-warm=%d", n.Warm))
		}
		if n.Measure != d.Measure {
			args = append(args, fmt.Sprintf("-measure=%d", n.Measure))
		}
	case "compare":
		if n.Bench != d.Bench {
			args = append(args, "-bench="+n.Bench)
		}
		if n.Backend != "" {
			args = append(args, "-backend="+n.Backend)
		}
		if n.Warm != d.Warm {
			args = append(args, fmt.Sprintf("-warm=%d", n.Warm))
		}
		if n.Measure != d.Measure {
			args = append(args, fmt.Sprintf("-measure=%d", n.Measure))
		}
		if n.Matrices != d.Matrices {
			args = append(args, fmt.Sprintf("-matrices=%d", n.Matrices))
		}
	case "spmv":
		if n.Matrices != 0 {
			args = append(args, fmt.Sprintf("-matrices=%d", n.Matrices))
		}
		if n.Dense {
			args = append(args, "-dense")
		}
	case "linesize":
		if n.Matrices != 0 {
			args = append(args, fmt.Sprintf("-matrices=%d", n.Matrices))
		}
	case "sweep":
		if n.Points != d.Points {
			args = append(args, fmt.Sprintf("-points=%d", n.Points))
		}
		if n.Rows != d.Rows {
			args = append(args, fmt.Sprintf("-rows=%d", n.Rows))
		}
	case "omsstress":
		if n.Tenants != d.Tenants {
			args = append(args, fmt.Sprintf("-tenants=%d", n.Tenants))
		}
		if n.Ops != d.Ops {
			args = append(args, fmt.Sprintf("-ops=%d", n.Ops))
		}
		if n.Segments != d.Segments {
			args = append(args, fmt.Sprintf("-segments=%d", n.Segments))
		}
		if n.OMSCapacity != d.OMSCapacity {
			args = append(args, fmt.Sprintf("-oms-capacity=%d", n.OMSCapacity))
		}
		if n.NoSpill {
			args = append(args, "-oms-spill=false")
		}
		if n.Shared {
			args = append(args, "-shared")
		}
	}
	if n.Cold && n.Experiment != "dualcore" && n.Experiment != "omsstress" {
		args = append(args, "-cold")
	}
	if n.Parallel != 0 {
		args = append(args, fmt.Sprintf("-parallel=%d", n.Parallel))
	}
	return args
}

// SpecFromArgs parses an overlaysim experiment invocation (subcommand
// followed by its flags) back into a validated JobSpec — the inverse of
// CLIArgs. The flag set registered per experiment is the same table the
// CLI subcommand exposes, so any invocation the CLI accepts for these
// experiments parses here too.
func SpecFromArgs(args []string) (JobSpec, error) {
	if len(args) == 0 {
		return JobSpec{}, &ValidationError{Problems: []string{"empty invocation"}}
	}
	s := JobSpec{Experiment: args[0]}
	fs := flag.NewFlagSet(s.Experiment, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	omsSpill := true
	switch s.Experiment {
	case "fork":
		fs.StringVar(&s.Bench, "bench", "", "")
		fs.StringVar(&s.Backend, "backend", "", "")
		fs.Uint64Var(&s.Warm, "warm", 0, "")
		fs.Uint64Var(&s.Measure, "measure", 0, "")
	case "compare":
		fs.StringVar(&s.Bench, "bench", "", "")
		fs.StringVar(&s.Backend, "backend", "", "")
		fs.Uint64Var(&s.Warm, "warm", 0, "")
		fs.Uint64Var(&s.Measure, "measure", 0, "")
		fs.IntVar(&s.Matrices, "matrices", 0, "")
	case "spmv":
		fs.IntVar(&s.Matrices, "matrices", 0, "")
		fs.BoolVar(&s.Dense, "dense", false, "")
	case "linesize":
		fs.IntVar(&s.Matrices, "matrices", 0, "")
	case "sweep":
		fs.IntVar(&s.Points, "points", 0, "")
		fs.IntVar(&s.Rows, "rows", 0, "")
	case "dualcore":
		// only the shared flags
	case "omsstress":
		fs.IntVar(&s.Tenants, "tenants", 0, "")
		fs.IntVar(&s.Ops, "ops", 0, "")
		fs.IntVar(&s.Segments, "segments", 0, "")
		fs.IntVar(&s.OMSCapacity, "oms-capacity", 0, "")
		fs.BoolVar(&omsSpill, "oms-spill", true, "")
		fs.BoolVar(&s.Shared, "shared", false, "")
	default:
		return JobSpec{}, &ValidationError{Problems: []string{
			fmt.Sprintf("unknown experiment %q", s.Experiment)}}
	}
	if s.Experiment != "dualcore" && s.Experiment != "omsstress" {
		fs.BoolVar(&s.Cold, "cold", false, "")
	}
	fs.IntVar(&s.Parallel, "parallel", 0, "")
	if err := fs.Parse(args[1:]); err != nil {
		return JobSpec{}, &ValidationError{Problems: []string{err.Error()}}
	}
	if fs.NArg() > 0 {
		return JobSpec{}, &ValidationError{Problems: []string{
			fmt.Sprintf("unexpected arguments %v", fs.Args())}}
	}
	if s.Experiment == "omsstress" && !omsSpill {
		s.NoSpill = true
	}
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s.Normalized(), nil
}

// Run executes the spec on the pool and returns the same export the
// matching CLI subcommand writes with -json — byte for byte, so a
// served job and a CLI run of CLIArgs() are interchangeable. The pool's
// Parallel is overridden by the spec's when set. A context cancelled
// mid-run surfaces as ctx.Err() even when the underlying sweep had
// already finished its in-flight simulations.
func (s JobSpec) Run(ctx context.Context, pool Pool) (*JobOutput, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Normalized()
	if n.Parallel != 0 {
		pool.Parallel = n.Parallel
	}
	if n.Cold {
		pool.Cold = true
	}
	if pool.Snap == nil {
		pool.Snap = &SnapshotStats{}
	}
	out := &JobOutput{}
	switch n.Experiment {
	case "fork":
		params := ForkParams{
			WarmInstructions:    n.Warm,
			MeasureInstructions: n.Measure,
			Backend:             n.Backend,
			SeriesEpoch:         sim.DefaultEpoch,
		}
		// The default backend renders as the empty string so the export's
		// config block is byte-identical to a CLI run without -backend.
		if params.Backend == core.DefaultBackend {
			params.Backend = ""
		}
		var names []string
		if n.Bench != "" {
			names = []string{n.Bench}
		}
		results, err := RunForkSuitePool(ctx, pool, params, names)
		if err != nil {
			return nil, err
		}
		// ForkExport bundles the merged registry and per-run series
		// exactly as the CLI does; re-merge the stats here so the
		// caller gets live histograms, not just their summaries.
		out.Export = ForkExport(params, results)
		merged := &sim.Stats{}
		for i := range results {
			merged.Merge(results[i].CoW.Stats)
			merged.Merge(results[i].OoW.Stats)
		}
		out.Stats = merged
	case "spmv":
		results, err := RunFigure10Pool(ctx, pool, n.Matrices, n.Dense)
		if err != nil {
			return nil, err
		}
		out.Export = sim.NewExport("spmv")
		out.Export.Results = results
	case "linesize":
		results, err := RunFigure11Pool(ctx, pool, n.Matrices)
		if err != nil {
			return nil, err
		}
		out.Export = sim.NewExport("linesize")
		out.Export.Results = results
	case "sweep":
		results, err := RunSparsitySweepPool(ctx, pool, n.Points, n.Rows)
		if err != nil {
			return nil, err
		}
		out.Export = sim.NewExport("sweep")
		out.Export.Results = results
	case "dualcore":
		results, err := RunDualCorePool(ctx, pool)
		if err != nil {
			return nil, err
		}
		out.Export = sim.NewExport("dualcore")
		out.Export.Results = results
	case "compare":
		params := CompareParams{
			Bench:    n.Bench,
			Warm:     n.Warm,
			Measure:  n.Measure,
			Matrices: n.Matrices,
		}
		if n.Backend != "" {
			params.Backends = []string{n.Backend}
		}
		report, err := RunComparePool(ctx, pool, params)
		if err != nil {
			return nil, err
		}
		out.Export = CompareExport(params, report)
	case "omsstress":
		params := OMSStressParams{
			Tenants:  n.Tenants,
			Ops:      n.Ops,
			Segments: n.Segments,
			Capacity: n.OMSCapacity,
			Spill:    !n.NoSpill,
			Shared:   n.Shared,
		}
		if params.Capacity < 0 {
			params.Capacity = 0 // -1 in the spec means unlimited
		}
		results, stats, err := RunOMSStressPool(ctx, pool, params)
		if err != nil {
			return nil, err
		}
		out.Export = sim.NewExport("omsstress")
		out.Export.Results = results
		out.Stats = stats
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Warm-state reuse telemetry rides along outside the per-run
	// registries (which stay bit-identical between cold and forked
	// runs): the deterministic tallies go into the export's counter map
	// — identically for a served job and a CLI -json run — and into the
	// output registry the serving layer aggregates into /metrics.
	if prov := pool.Snap.Provenance(); !prov.Empty() {
		prov.AttachCounters(out.Export)
		if out.Stats == nil {
			out.Stats = &sim.Stats{}
		}
		prov.AttachStats(out.Stats)
	}
	return out, nil
}
