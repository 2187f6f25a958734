package exp

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// TestSpecRoundTrip feeds specs through CLIArgs → SpecFromArgs and
// asserts the normalized spec survives unchanged.
func TestSpecRoundTrip(t *testing.T) {
	specs := []JobSpec{
		{Experiment: "fork", Bench: "hmmer", Warm: 20000, Measure: 50000},
		{Experiment: "fork"},
		{Experiment: "spmv", Matrices: 6, Dense: true, Parallel: 4},
		{Experiment: "linesize", Matrices: 10},
		{Experiment: "spmv", Matrices: 87},
		{Experiment: "spmv", Matrices: 200, Dense: true},
		{Experiment: "linesize", Matrices: 87},
		{Experiment: "linesize", Matrices: 200},
		{Experiment: "compare", Matrices: 87},
		{Experiment: "sweep", Points: 8, Rows: 128},
		{Experiment: "sweep"},
		{Experiment: "dualcore", Parallel: 2},
		{Experiment: "omsstress"},
		{Experiment: "omsstress", Tenants: 2, Ops: 4000, Segments: 48, OMSCapacity: 8, Parallel: 2},
		{Experiment: "omsstress", OMSCapacity: -1, NoSpill: true},
	}
	for _, s := range specs {
		args := s.CLIArgs()
		back, err := SpecFromArgs(args)
		if err != nil {
			t.Errorf("%v: SpecFromArgs(%v): %v", s, args, err)
			continue
		}
		if back != s.Normalized() {
			t.Errorf("round trip drifted:\n spec %+v\n args %v\n back %+v", s.Normalized(), args, back)
		}
	}

	// Every whole-suite count runs the same 87-matrix job, so spmv and
	// linesize give them one key; compare's 0 means its default subset
	// and must stay distinct from 87.
	for _, e := range []string{"spmv", "linesize"} {
		all := JobSpec{Experiment: e}.Key()
		for _, k := range []int{sparse.SuiteSize, 200} {
			if got := (JobSpec{Experiment: e, Matrices: k}).Key(); got != all {
				t.Errorf("%s matrices=%d: key %.8s, want the whole-suite key %.8s", e, k, got, all)
			}
		}
		if (JobSpec{Experiment: e, Matrices: 86}).Key() == all {
			t.Errorf("%s matrices=86 shares the whole-suite key", e)
		}
	}
	if (JobSpec{Experiment: "compare"}).Key() == (JobSpec{Experiment: "compare", Matrices: 87}).Key() {
		t.Error("compare matrices=87 shares the key of its default subset")
	}
}

// TestSpecFieldTable pins the field table the registry works through:
// fields()[i] points at the JobSpec field whose JSON name is
// fieldNames[i], and every field but Experiment is listed, so a new
// spec field cannot skip validation or normalization.
func TestSpecFieldTable(t *testing.T) {
	var s JobSpec
	v := reflect.ValueOf(&s).Elem()
	byAddr := map[uintptr]string{}
	for i := 1; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		byAddr[v.Field(i).Addr().Pointer()] = name
	}
	fields := s.fields()
	if len(fields) != len(byAddr) {
		t.Fatalf("fields lists %d fields, JobSpec has %d besides experiment", len(fields), len(byAddr))
	}
	for i, p := range fields {
		if got := byAddr[reflect.ValueOf(p).Pointer()]; got != fieldNames[i] {
			t.Errorf("fields()[%d] is %q, fieldNames says %q", i, got, fieldNames[i])
		}
	}
}

// TestSpecValidation exercises the flag-table checks: unknown
// experiments, inapplicable fields, and the CLI's value constraints.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string // substring of the validation error ("" = valid)
	}{
		{"ok fork", JobSpec{Experiment: "fork", Bench: "mcf"}, ""},
		{"ok dualcore", JobSpec{Experiment: "dualcore"}, ""},
		{"ok sweep defaults", JobSpec{Experiment: "sweep"}, ""},
		{"unknown experiment", JobSpec{Experiment: "warp"}, "unknown experiment"},
		{"fork with rows", JobSpec{Experiment: "fork", Rows: 64}, `"rows" does not apply`},
		{"fork unknown bench", JobSpec{Experiment: "fork", Bench: "nope"}, "nope"},
		{"spmv with warm", JobSpec{Experiment: "spmv", Warm: 5}, `"warm" does not apply`},
		{"dualcore with dense", JobSpec{Experiment: "dualcore", Dense: true}, `"dense" does not apply`},
		{"negative parallel", JobSpec{Experiment: "spmv", Parallel: -1}, "parallel"},
		{"negative matrices", JobSpec{Experiment: "linesize", Matrices: -2}, "matrices"},
		{"sweep one point", JobSpec{Experiment: "sweep", Points: 1}, "at least 2 sweep points"},
		{"sweep tiny rows", JobSpec{Experiment: "sweep", Rows: 4}, "cache line"},
		{"ok omsstress", JobSpec{Experiment: "omsstress", OMSCapacity: 8}, ""},
		{"omsstress with bench", JobSpec{Experiment: "omsstress", Bench: "mcf"}, `"bench" does not apply`},
		{"omsstress with cold", JobSpec{Experiment: "omsstress", Cold: true}, `"cold" does not apply`},
		{"spmv with cold", JobSpec{Experiment: "spmv", Cold: true}, `"cold" does not apply`},
		{"sweep with cold", JobSpec{Experiment: "sweep", Cold: true}, `"cold" does not apply`},
		{"linesize with cold", JobSpec{Experiment: "linesize", Cold: true}, `"cold" does not apply`},
		{"omsstress bad capacity", JobSpec{Experiment: "omsstress", OMSCapacity: -2}, "oms_capacity"},
		{"omsstress bad tenants", JobSpec{Experiment: "omsstress", Tenants: -1}, "tenants"},
		{"fork with tenants", JobSpec{Experiment: "fork", Tenants: 2}, `"tenants" does not apply`},
		{"spmv with nospill", JobSpec{Experiment: "spmv", NoSpill: true}, `"nospill" does not apply`},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
		var ve *ValidationError
		if err != nil && !errors.As(err, &ve) {
			t.Errorf("%s: error is %T, want *ValidationError", c.name, err)
		}
	}
}

// TestSpecFromArgsTypedZero pins how an invocation's explicit zero
// reads. A spec's omitted field means the default, but a flag typed as 0
// is checked as given: where 0 is below the flag's minimum it is
// rejected, and where the flag documents 0 as its default it still
// means that.
func TestSpecFromArgsTypedZero(t *testing.T) {
	for _, args := range [][]string{
		{"fork", "-warm=0"},
		{"fork", "-measure=0"},
		{"sweep", "-points=0"},
		{"sweep", "-rows=0"},
		{"omsstress", "-tenants=0"},
		{"omsstress", "-ops=0"},
		{"omsstress", "-segments=0"},
	} {
		var ve *ValidationError
		if _, err := SpecFromArgs(args); !errors.As(err, &ve) {
			t.Errorf("SpecFromArgs(%v) = %v, want a *ValidationError", args, err)
		}
	}
	for _, c := range []struct {
		args []string
		want JobSpec
	}{
		{[]string{"compare", "-matrices=0", "-warm=0", "-measure=0", "-bench="}, JobSpec{Experiment: "compare"}},
		{[]string{"omsstress", "-oms-capacity=0"}, JobSpec{Experiment: "omsstress"}},
		{[]string{"spmv", "-matrices=0"}, JobSpec{Experiment: "spmv"}},
		{[]string{"fork", "-backend="}, JobSpec{Experiment: "fork"}},
	} {
		got, err := SpecFromArgs(c.args)
		if err != nil {
			t.Errorf("SpecFromArgs(%v): %v", c.args, err)
			continue
		}
		want := c.want
		want.Parallel = 1 // the CLI's -parallel default
		if want = want.Normalized(); got != want {
			t.Errorf("SpecFromArgs(%v) = %+v, want %+v", c.args, got, want)
		}
	}
}

// TestSpecValidationCollectsAll asserts one bad spec reports every
// problem, not just the first.
func TestSpecValidationCollectsAll(t *testing.T) {
	s := JobSpec{Experiment: "sweep", Points: 1, Rows: 4, Parallel: -3, Dense: true}
	err := s.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("error = %v, want *ValidationError", err)
	}
	if len(ve.Problems) != 4 {
		t.Errorf("got %d problems, want 4: %v", len(ve.Problems), ve.Problems)
	}
}

// TestSpecKey pins the cache-key semantics: defaults and explicit
// defaults collide, Parallel never matters, and distinct work diverges.
func TestSpecKey(t *testing.T) {
	base := JobSpec{Experiment: "sweep"}
	explicit := JobSpec{Experiment: "sweep", Points: 11, Rows: 256}
	if base.Key() != explicit.Key() {
		t.Error("spec with explicit defaults has a different key than the bare spec")
	}
	par := JobSpec{Experiment: "sweep", Parallel: 8}
	if base.Key() != par.Key() {
		t.Error("parallel hint changed the cache key; metrics are identical at any worker count")
	}
	other := JobSpec{Experiment: "sweep", Points: 8}
	if base.Key() == other.Key() {
		t.Error("different sweep sizes share a cache key")
	}
	if k := base.Key(); len(k) != 64 {
		t.Errorf("key %q is not a hex sha256", k)
	}
}

// TestSpecKeyIgnoresExecutionHints is the digest-agreement regression
// for the result tiers (LRU cache, persistent store, coordinator shard
// routing): every execution-only field — parallel, cold — must
// be invisible to Key, individually and combined, or identical work
// would land in different cache slots depending on how it was launched.
func TestSpecKeyIgnoresExecutionHints(t *testing.T) {
	cases := []struct {
		name          string
		base, variant JobSpec
	}{
		{"parallel", JobSpec{Experiment: "omsstress"}, JobSpec{Experiment: "omsstress", Parallel: 7}},
		{"cold", JobSpec{Experiment: "dualcore"}, JobSpec{Experiment: "dualcore", Cold: true}},
		{"all combined",
			JobSpec{Experiment: "fork", Bench: "hmmer", Warm: 20000},
			JobSpec{Experiment: "fork", Bench: "hmmer", Warm: 20000, Parallel: 4, Cold: true}},
	}
	for _, tc := range cases {
		if tc.base.Key() != tc.variant.Key() {
			t.Errorf("%s: execution hint changed the digest\n base    %s\n variant %s",
				tc.name, tc.base.Key(), tc.variant.Key())
		}
		if string(tc.base.CanonicalJSON()) != string(tc.variant.CanonicalJSON()) {
			t.Errorf("%s: canonical JSON diverged: %s vs %s",
				tc.name, tc.base.CanonicalJSON(), tc.variant.CanonicalJSON())
		}
	}
	// Simulation-relevant omsstress fields still diverge.
	a := JobSpec{Experiment: "omsstress", Tenants: 2}
	b := JobSpec{Experiment: "omsstress", Tenants: 3}
	if a.Key() == b.Key() {
		t.Error("different tenant counts share a digest")
	}
}

// TestParseJobSpec covers strict decoding: unknown fields and invalid
// specs are rejected with ValidationError.
func TestParseJobSpec(t *testing.T) {
	good := `{"experiment":"fork","bench":"hmmer","warm":20000,"measure":50000}`
	s, err := ParseJobSpec(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Bench != "hmmer" || s.Warm != 20000 {
		t.Errorf("parsed spec = %+v", s)
	}
	for name, body := range map[string]string{
		"unknown field":   `{"experiment":"fork","turbo":true}`,
		"not json":        `experiment=fork`,
		"bad experiment":  `{"experiment":"warp"}`,
		"field mismatch":  `{"experiment":"dualcore","rows":64}`,
		"negative number": `{"experiment":"spmv","matrices":-1}`,
	} {
		if _, err := ParseJobSpec(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

// FuzzParseJobSpec holds the parser every submission goes through to
// three properties: on any body it returns a spec or an error without
// panicking; an accepted spec re-parses from its CanonicalJSON to the
// same Key, so the canonical form is itself a submission of the same
// result; and its CLIArgs parse back through SpecFromArgs to the same
// Key, so the CLI invocation a spec names runs the same result.
func FuzzParseJobSpec(f *testing.F) {
	f.Add([]byte(`{"experiment":"fork","bench":"hmmer","warm":20000,"measure":50000}`))
	f.Add([]byte(`{"experiment":"omsstress","nospill":true,"oms_capacity":-1}`))
	f.Add([]byte(`{"experiment":"compare","backend":"overlay"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := ParseJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		canon := spec.CanonicalJSON()
		again, err := ParseJobSpec(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form %s of accepted %q rejected: %v", canon, body, err)
		}
		if again.Key() != spec.Key() {
			t.Fatalf("canonical form %s of %q has key %s, want %s", canon, body, again.Key(), spec.Key())
		}
		args := spec.CLIArgs()
		back, err := SpecFromArgs(args)
		if err != nil {
			t.Fatalf("CLIArgs %v of accepted %q rejected: %v", args, body, err)
		}
		if back.Key() != spec.Key() {
			t.Fatalf("CLIArgs %v of %q has key %s, want %s", args, body, back.Key(), spec.Key())
		}
	})
}

// BenchmarkParseJobSpec times what every served request pays for its
// spec: ParseJobSpec and Key.
func BenchmarkParseJobSpec(b *testing.B) {
	body := []byte(`{"experiment":"omsstress","tenants":2,"ops":2000,"segments":16,"oms_capacity":4}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, err := ParseJobSpec(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_ = spec.Key()
	}
}

// TestSpecRunMatchesDirectRunner runs a tiny sweep through JobSpec.Run
// and through the underlying pool runner directly; the simulated cycle
// counts must agree (the serve layer adds no simulation of its own).
func TestSpecRunMatchesDirectRunner(t *testing.T) {
	spec := JobSpec{Experiment: "sweep", Points: 2, Rows: 64}
	out, err := spec.Run(context.Background(), Pool{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Export == nil || out.Export.Command != "sweep" {
		t.Fatalf("export = %+v", out.Export)
	}
	direct, err := RunSparsitySweepPool(context.Background(), Pool{Parallel: 1}, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.Export.Results.([]SweepResult)
	if !ok {
		t.Fatalf("export results have type %T", out.Export.Results)
	}
	if len(got) != len(direct) {
		t.Fatalf("got %d results, want %d", len(got), len(direct))
	}
	for i := range got {
		if got[i] != direct[i] {
			t.Errorf("point %d: spec run %+v != direct run %+v", i, got[i], direct[i])
		}
	}
}

// TestSpecRunCancelled asserts a pre-cancelled context surfaces as
// ctx.Err, not a partial result.
func TestSpecRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := JobSpec{Experiment: "dualcore"}.Run(ctx, Pool{Parallel: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
