package exp

// This file defines the canonical job spec: the JSON document `overlaysim
// serve` accepts over HTTP. Everything a spec means comes from its
// experiment's entry in the registry (experiments.go): the flags it
// binds, their defaults and value checks, the run and the report. A spec
// round-trips to a CLI invocation (CLIArgs ↔ SpecFromArgs), normalises
// to the CLI's defaults, and hashes to a cache key that identifies the
// simulated result — the simulator is deterministic and the harness is
// bit-identical at any worker count, so two specs with the same key have
// the same result by construction.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// JobSpec is one experiment request in canonical form: the experiment
// name plus exactly the flags the matching CLI subcommand accepts.
// Fields that do not apply to the chosen experiment must be zero — a
// spec carrying them is rejected, the same way the CLI rejects an
// unknown flag.
type JobSpec struct {
	// Experiment names the registry entry that runs the spec: fork,
	// spmv, linesize, sweep, dualcore, compare or omsstress.
	Experiment string `json:"experiment"`

	// Parallel is the harness worker count (0 = GOMAXPROCS). It is an
	// execution hint only: simulated metrics are bit-identical at any
	// worker count, so Parallel is excluded from the cache key.
	Parallel int `json:"parallel,omitempty"`

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
}

// fieldNames are the JSON names of the flag-settable JobSpec fields, in
// the order fields returns them.
var fieldNames = [...]string{"parallel", "bench", "backend", "warm", "measure",
	"matrices", "dense", "points", "rows", "tenants", "ops", "segments",
	"oms_capacity", "nospill"}

// fields returns a pointer to each flag-settable field of s, in
// fieldNames order: an *int, *uint64, *string or *bool.
func (s *JobSpec) fields() [len(fieldNames)]any {
	return [...]any{&s.Parallel, &s.Bench, &s.Backend, &s.Warm, &s.Measure,
		&s.Matrices, &s.Dense, &s.Points, &s.Rows, &s.Tenants, &s.Ops, &s.Segments,
		&s.OMSCapacity, &s.NoSpill}
}

// isZero reports whether the field p points at holds its zero value.
func isZero(p any) bool {
	switch p := p.(type) {
	case *int:
		return *p == 0
	case *uint64:
		return *p == 0
	case *string:
		return *p == ""
	default:
		return !*p.(*bool)
	}
}

// fillZero copies *def into the field p points at when that field is
// zero. Booleans default to false, so they never fill.
func fillZero(p, def any) {
	switch p := p.(type) {
	case *int:
		if *p == 0 {
			*p = *def.(*int)
		}
	case *uint64:
		if *p == 0 {
			*p = *def.(*uint64)
		}
	case *string:
		if *p == "" {
			*p = *def.(*string)
		}
	}
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

// Normalized fills zero fields with the CLI defaults of the spec's
// experiment, then applies the experiment's own canonical forms. It
// does not validate.
func (s JobSpec) Normalized() JobSpec {
	e := lookup(s.Experiment)
	if e == nil {
		return s
	}
	fields, fill := s.fields(), e.fill.fields()
	for i := range fields {
		fillZero(fields[i], fill[i])
	}
	if e.normalize != nil {
		s = e.normalize(s)
	}
	return s
}

// Validate checks the spec against its experiment's flag table: the
// experiment must exist, fields it binds no flag for must be zero, and
// every bound field must pass its flag's value check once normalized.
func (s JobSpec) Validate() error { return s.validate(s.Normalized()) }

// ValidateFlags is Validate for a spec parsed from its experiment's
// flags. A zero typed on the command line is not an omitted field, so
// each bound field is checked as given: `sweep -points=0` is rejected,
// while `compare -matrices=0` runs the default subset, as it always has.
func (s JobSpec) ValidateFlags() error { return s.validate(s) }

// validate checks s's unbound fields and the bound fields of checked.
func (s JobSpec) validate(checked JobSpec) error {
	e := lookup(s.Experiment)
	if e == nil {
		names := make([]string, len(Experiments))
		for i, e := range Experiments {
			names[i] = e.Name
		}
		return &ValidationError{Problems: []string{fmt.Sprintf("unknown experiment %q (want one of %s)",
			s.Experiment, strings.Join(names, ", "))}}
	}
	var problems []string
	fields := s.fields()
	for i := range fields {
		if e.bound&(1<<i) == 0 && !isZero(fields[i]) {
			problems = append(problems,
				fmt.Sprintf("field %q does not apply to experiment %q", fieldNames[i], s.Experiment))
		}
	}
	fields = checked.fields()
	for i := range e.flags {
		if p := e.flags[i].check(fields[e.flags[i].field]); p != "" {
			problems = append(problems, p)
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
// subcommand first, then one flag for each normalized field that differs
// from what the bare subcommand runs. Feeding the result back through
// SpecFromArgs yields the normalized spec; running it through the CLI
// with -json yields a byte-identical export.
func (s JobSpec) CLIArgs() []string {
	args := []string{s.Experiment}
	e := lookup(s.Experiment)
	if e == nil {
		return args
	}
	n := s.Normalized()
	have, want := n.fields(), e.defaults.fields()
	for _, f := range e.flags {
		if v := f.arg(have[f.field]); v != f.arg(want[f.field]) {
			args = append(args, "-"+f.name+"="+v)
		}
	}
	return args
}

// SpecFromArgs parses an overlaysim experiment invocation (subcommand
// followed by its flags) back into a validated, normalized JobSpec — the
// inverse of CLIArgs. It binds the flags the CLI subcommand binds, so
// any invocation the CLI accepts for an experiment parses here too.
func SpecFromArgs(args []string) (JobSpec, error) {
	if len(args) == 0 {
		return JobSpec{}, &ValidationError{Problems: []string{"empty invocation"}}
	}
	e := lookup(args[0])
	if e == nil {
		return JobSpec{}, JobSpec{Experiment: args[0]}.Validate()
	}
	s := JobSpec{Experiment: e.Name}
	fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e.Bind(fs, &s)
	if err := fs.Parse(args[1:]); err != nil {
		return JobSpec{}, &ValidationError{Problems: []string{err.Error()}}
	}
	if fs.NArg() > 0 {
		return JobSpec{}, &ValidationError{Problems: []string{
			fmt.Sprintf("unexpected arguments %v", fs.Args())}}
	}
	if err := s.ValidateFlags(); err != nil {
		return JobSpec{}, err
	}
	return s.Normalized(), nil
}

// Run executes the spec on the pool and returns the same export the
// matching CLI subcommand writes with -json — byte for byte, because the
// CLI runs its invocation through this method too. The pool's Parallel
// is overridden by the spec's when set. A context cancelled mid-run
// surfaces as ctx.Err() even when the underlying sweep had already
// finished its in-flight simulations.
func (s JobSpec) Run(ctx context.Context, pool Pool) (*JobOutput, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Normalized()
	if n.Parallel != 0 {
		pool.Parallel = n.Parallel
	}
	if pool.Snap == nil {
		pool.Snap = &SnapshotStats{}
	}
	out, err := lookup(n.Experiment).run(ctx, pool, n)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Warm-state reuse telemetry rides along outside the per-run
	// registries (which must not depend on how many runs shared a
	// family): the deterministic tallies go into the export's counter map
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

// specFlag is one CLI flag of an experiment, bound onto a JobSpec field.
type specFlag struct {
	name  string
	json  string // the JobSpec field it sets (empty = the flag's name)
	def   any    // the CLI default, of the field's type (nil = zero)
	usage string

	// A number field must be at least min; why ends the problem reported
	// otherwise. A non-empty string field must pass valid, when set.
	min   int
	why   string
	valid func(string) error

	// negate stores a boolean flag inverted: -oms-spill sets NoSpill.
	negate bool

	field int // index of json in fieldNames, resolved at init
}

// bind registers the flag on fs, bound onto the field p points at.
func (f *specFlag) bind(fs *flag.FlagSet, p any) {
	switch p := p.(type) {
	case *int:
		def, _ := f.def.(int)
		fs.IntVar(p, f.name, def, f.usage)
	case *uint64:
		def, _ := f.def.(uint64)
		fs.Uint64Var(p, f.name, def, f.usage)
	case *string:
		def, _ := f.def.(string)
		fs.StringVar(p, f.name, def, f.usage)
	case *bool:
		if f.negate {
			fs.Var(negated{p}, f.name, f.usage)
		} else {
			fs.BoolVar(p, f.name, false, f.usage)
		}
	}
}

// arg renders the field p points at as this flag's value.
func (f *specFlag) arg(p any) string {
	switch p := p.(type) {
	case *int:
		return strconv.Itoa(*p)
	case *uint64:
		return strconv.FormatUint(*p, 10)
	case *string:
		return *p
	default:
		return strconv.FormatBool(*p.(*bool) != f.negate)
	}
}

// check returns the problem with the field p points at, or "".
func (f *specFlag) check(p any) string {
	switch p := p.(type) {
	case *int:
		if *p < f.min {
			return fmt.Sprintf("invalid %s %d: %s", f.json, *p, f.why)
		}
	case *uint64:
		if f.min > 0 && *p < uint64(f.min) {
			return fmt.Sprintf("invalid %s %d: %s", f.json, *p, f.why)
		}
	case *string:
		if *p != "" && f.valid != nil {
			if err := f.valid(*p); err != nil {
				return err.Error()
			}
		}
	}
	return ""
}

// negated is a boolean flag.Value that stores its negation.
type negated struct{ p *bool }

func (v negated) String() string   { return strconv.FormatBool(v.p != nil && !*v.p) }
func (v negated) IsBoolFlag() bool { return true }

func (v negated) Set(s string) error {
	b, err := strconv.ParseBool(s)
	if err == nil {
		*v.p = !b
	}
	return err
}
