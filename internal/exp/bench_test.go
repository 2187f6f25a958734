package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// tinyBenchPlan keeps the full seven-experiment matrix but shrinks every
// knob so the test runs in seconds.
func tinyBenchPlan() BenchPlan {
	return BenchPlan{
		ForkNames:        []string{"hmmer"},
		ForkParams:       ForkParams{WarmInstructions: 20_000, MeasureInstructions: 40_000},
		SpMVMatrices:     2,
		LineSizeMatrices: 3,
		SweepPoints:      2,
		SweepRows:        64,
	}
}

// TestRunBenchShape runs the tiny matrix end to end: all seven
// experiments present, deterministic metrics recorded, wall clocks
// populated.
func TestRunBenchShape(t *testing.T) {
	report, err := RunBench(context.Background(), tinyBenchPlan(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fork", "spmv", "linesize", "sweep", "compare", "omsstress", "dualcore"}
	if len(report.Experiments) != len(want) {
		t.Fatalf("got %d experiments, want %d", len(report.Experiments), len(want))
	}
	for i, e := range report.Experiments {
		if e.Name != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.Name, want[i])
		}
		if len(e.Metrics) == 0 {
			t.Errorf("%s: no metrics recorded", e.Name)
		}
		if e.SeqWallMS <= 0 || e.ParWallMS <= 0 {
			t.Errorf("%s: wall clocks not populated: %+v", e.Name, e)
		}
	}
	if report.Parallel != 2 || report.SeqWallMS <= 0 {
		t.Errorf("report totals not populated: %+v", report)
	}
	// Spot-check a simulated metric that must exist.
	if report.Experiments[0].Metrics["hmmer.cow.cycles"] == 0 {
		t.Error("fork metrics missing hmmer.cow.cycles")
	}

	// A second run reproduces the simulated metrics exactly.
	again, err := RunBench(context.Background(), tinyBenchPlan(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range report.Experiments {
		if diffs := diffMetrics(report.Experiments[i].Metrics, again.Experiments[i].Metrics); len(diffs) > 0 {
			t.Errorf("%s metrics not reproducible: %v", report.Experiments[i].Name, diffs)
		}
	}
}

// TestCheckBench exercises the regression gate: exact-match metrics,
// wall-clock tolerance, and structural mismatches.
func TestCheckBench(t *testing.T) {
	base := &BenchReport{
		Parallel:  4,
		ParWallMS: 1000,
		Experiments: []BenchExperiment{
			{Name: "fork", Metrics: map[string]uint64{"a.cycles": 100, "b.cycles": 200}},
			{Name: "sweep", Metrics: map[string]uint64{"p0": 7}},
		},
	}
	clone := func(mutate func(*BenchReport)) *BenchReport {
		r := &BenchReport{Parallel: base.Parallel, ParWallMS: base.ParWallMS}
		for _, e := range base.Experiments {
			m := make(map[string]uint64, len(e.Metrics))
			for k, v := range e.Metrics {
				m[k] = v
			}
			e.Metrics = m
			r.Experiments = append(r.Experiments, e)
		}
		mutate(r)
		return r
	}

	if err := CheckBench(base, clone(func(*BenchReport) {}), 0.25); err != nil {
		t.Fatalf("identical report failed the gate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*BenchReport)
		want   string
	}{
		{"cycle drift", func(r *BenchReport) { r.Experiments[0].Metrics["a.cycles"] = 101 }, "drifted"},
		{"missing metric", func(r *BenchReport) { delete(r.Experiments[0].Metrics, "b.cycles") }, "drifted"},
		{"extra metric", func(r *BenchReport) { r.Experiments[0].Metrics["new"] = 1 }, "drifted"},
		{"missing experiment", func(r *BenchReport) { r.Experiments = r.Experiments[:1] }, "missing from this run"},
		{"extra experiment", func(r *BenchReport) {
			r.Experiments = append(r.Experiments, BenchExperiment{Name: "mystery"})
		}, "not in baseline"},
		{"wall regression", func(r *BenchReport) { r.ParWallMS = 1300 }, "wall clock regressed"},
		{"parallel mismatch", func(r *BenchReport) { r.Parallel = 1 }, "-parallel"},
	}
	for _, c := range cases {
		err := CheckBench(base, clone(c.mutate), 0.25)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	// Tolerance 0 disables the wall-clock gate entirely.
	if err := CheckBench(base, clone(func(r *BenchReport) { r.ParWallMS = 99999 }), 0); err != nil {
		t.Errorf("wallTol 0 still gated wall clock: %v", err)
	}
}

// TestLoadBenchBaseline round-trips a report through the export format
// and rejects malformed documents.
func TestLoadBenchBaseline(t *testing.T) {
	report := &BenchReport{
		Parallel:    4,
		ParWallMS:   12,
		Experiments: []BenchExperiment{{Name: "fork", Metrics: map[string]uint64{"x": 1}}},
	}
	ex := sim.NewExport("bench")
	ex.Meta = sim.NewRunMeta(4)
	ex.Results = report
	var buf bytes.Buffer
	if err := ex.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchBaseline(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Parallel != 4 || len(got.Experiments) != 1 || got.Experiments[0].Metrics["x"] != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}

	for name, doc := range map[string]string{
		"not json":       "nope",
		"wrong command":  `{"schema_version":1,"command":"fork","results":{"experiments":[{"name":"x"}]}}`,
		"wrong schema":   `{"schema_version":99,"command":"bench","results":{"experiments":[{"name":"x"}]}}`,
		"no experiments": `{"schema_version":1,"command":"bench","results":{}}`,
	} {
		if _, err := LoadBenchBaseline(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: baseline accepted", name)
		}
	}
}

// TestShortBenchMatchesBaseline is the exact half of `bench -check` in
// tier-1: every case of the short plan runs once, sequentially, and each
// simulated metric must equal BENCH_harness.json's. A one-cycle change
// to a timing constant fails here, not only in the CI bench job; the
// wall-clock gate stays in CI.
func TestShortBenchMatchesBaseline(t *testing.T) {
	fh, err := os.Open(filepath.Join("..", "..", "BENCH_harness.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	base, err := LoadBenchBaseline(fh)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]map[string]uint64, len(base.Experiments))
	for _, e := range base.Experiments {
		want[e.Name] = e.Metrics
	}
	for _, c := range ShortBenchPlan().cases() {
		got, err := c.run(context.Background(), Pool{Parallel: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if diffs := diffMetrics(want[c.name], got); len(diffs) > 0 {
			t.Errorf("%s drifted from BENCH_harness.json (%d keys):\n  %s", c.name, len(diffs), strings.Join(diffs, "\n  "))
		}
		delete(want, c.name)
	}
	for name := range want {
		t.Errorf("BENCH_harness.json records %q, which the short plan no longer runs", name)
	}
}
